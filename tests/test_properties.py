"""Invariants of the exact line search and the descent, checked with ``hypothesis``.

Corpora are small and integer-valued, so every projected score is
exact and each line-search property holds bit for bit: the ``repr`` of
the :class:`LineSearchResult` must not change.  The descent and the
cached line order are checked on tie-heavy and near-parallel inputs.
Examples are derandomized and bounded so that the suite is
deterministic and fast.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotamert import envelope
from rotamert.corpus import Hypothesis, build_corpus
from rotamert.descent import SWEEP_MODES, CoordinateSystem, KcdConfig, Rotation, kcd_optimize
from rotamert.envelope import (
    LineSearchResult,
    PackedCorpus,
    SearchPlan,
    _hulls,
    _may_reach_hull,
    _sweep,
    line_search,
)

from instances import pack_rows, ray_instance, row_ranks
from instances import search as dense_search
from oracles import (
    dense_axis,
    hull_by_stack,
    intervals_from_hulls,
    running_maxima_from_both_ends,
    split_hulls,
)

PROPERTY_SETTINGS = settings(
    derandomize=True, max_examples=60, deadline=None, database=None
)

tokens = st.lists(st.sampled_from("ab"), min_size=4, max_size=8).map(tuple)
small_int = st.integers(-4, 4)
features = st.tuples(small_int, small_int)
sentence = st.tuples(
    st.lists(st.tuples(tokens, features), min_size=1, max_size=6),
    st.lists(tokens, min_size=1, max_size=2),
)


def build(sentences):
    """A corpus of sentences given as (hypotheses, references)."""
    nbest = {
        s: [
            Hypothesis(s, k, toks, tuple(float(x) for x in feats))
            for k, (toks, feats) in enumerate(hyps)
        ]
        for s, (hyps, _) in enumerate(sentences)
    }
    refs = {s: list(references) for s, (_, references) in enumerate(sentences)}
    return build_corpus(nbest, refs)


def search(sentences, w, d):
    """``repr`` of line_search on sentences given as (hypotheses, references)."""
    return repr(dense_search(PackedCorpus.of(build(sentences)), w, d))


@PROPERTY_SETTINGS
@given(
    st.lists(sentence, min_size=1, max_size=5),
    st.tuples(small_int, small_int),
    features.filter(lambda d: d != (0, 0)),
    st.randoms(use_true_random=False),
)
def test_permuting_sentences_changes_nothing(sentences, w, d, random):
    shuffled = list(sentences)
    random.shuffle(shuffled)
    assert search(shuffled, w, d) == search(sentences, w, d)


@PROPERTY_SETTINGS
@given(
    st.lists(sentence, min_size=1, max_size=5),
    small_int,
    st.data(),
)
def test_appending_a_dominated_hypothesis_changes_nothing(sentences, c, data):
    # Along w = (1, c), d = (0, 1) a hypothesis (x, y) scores the line
    # with intercept x + c*y and slope y.  The new line's slope lies
    # between two existing lines' slopes and its intercept is strictly
    # below both, so it is under one of them at every gamma.
    w, d = (float(1), float(c)), (0.0, 1.0)
    s = data.draw(st.integers(0, len(sentences) - 1))
    hyps, references = sentences[s]
    first, second = (
        hyps[data.draw(st.integers(0, len(hyps) - 1))][1] for _ in range(2)
    )
    low, high = sorted((first[1], second[1]))
    slope = data.draw(st.integers(low, high))
    lines = [feats[0] + c * feats[1] for feats in (first, second)]
    intercept = min(lines) - data.draw(st.integers(1, 3))
    extra = (data.draw(tokens), (intercept - c * slope, slope))
    grown = list(sentences)
    grown[s] = ([*hyps, extra], references)
    assert search(grown, w, d) == search(sentences, w, d)


@PROPERTY_SETTINGS
@given(
    st.lists(sentence, min_size=1, max_size=5),
    st.tuples(small_int, small_int),
    features.filter(lambda d: d != (0, 0)),
    st.data(),
)
def test_repeating_features_at_a_higher_rank_changes_nothing(sentences, w, d, data):
    s = data.draw(st.integers(0, len(sentences) - 1))
    hyps, references = sentences[s]
    _, feats = hyps[data.draw(st.integers(0, len(hyps) - 1))]
    grown = list(sentences)
    grown[s] = ([*hyps, (data.draw(tokens), feats)], references)
    assert search(grown, w, d) == search(sentences, w, d)


halves = st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5])


# float32 values: any mantissa, but no magnitude so small that a
# crossing (a difference over a slope) overflows float64.
real = st.floats(-4.0, 4.0, width=32)
real_sentence = st.tuples(
    st.lists(st.tuples(tokens, st.tuples(real, real, real)), min_size=1, max_size=6),
    st.lists(tokens, min_size=1, max_size=2),
)


@st.composite
def ulp_cluster_sentence(draw):
    # At w = (1, 1, 0) along (0, 0, 1) the two lines cross at
    # fl(i/10 + j/10) - (i+j)/10: at gamma = 0 or a few ulps off it
    # (see tests/test_envelope.py::ulp_cluster_corpus).
    i, j = draw(st.integers(1, 99)), draw(st.integers(1, 99))
    hyps = [(draw(tokens), (i / 10, j / 10, 0.0)), (draw(tokens), ((i + j) / 10, 0.0, 1.0))]
    return hyps, [hyps[draw(st.integers(0, 1))][0]]


# Corpora whose search from (1, 1, 0) along the third axis meets ulp
# clusters at gamma = 0, or mixed corpora from any starting point.
descents = st.one_of(
    st.tuples(st.lists(ulp_cluster_sentence(), min_size=2, max_size=12), st.just((1.0, 1.0, 0.0))),
    st.tuples(
        st.lists(st.one_of(ulp_cluster_sentence(), real_sentence), min_size=1, max_size=6),
        st.tuples(real, real, real),
    ),
)


@st.composite
def systems(draw, dim=3):
    """A coordinate system of ``dim`` axes, 0 to 2 of them tilted, often by ±0.0."""
    alphas = st.one_of(st.sampled_from([-0.0, 0.0, -0.7, 2.5]), real)
    rotations = []
    for a in draw(st.lists(st.integers(0, dim - 1), max_size=2, unique=True)):
        b = draw(st.integers(0, dim - 1).filter(lambda b: b != a))
        rotations.append(Rotation(a, b, draw(alphas)))
    return CoordinateSystem(dim, tuple(rotations))


@PROPERTY_SETTINGS
@given(descents, systems(), st.sampled_from(SWEEP_MODES))
def test_every_trace_error_is_the_error_at_its_weights(descent, system, mode):
    sentences, w = descent
    packed = PackedCorpus.of(build(sentences))
    weights, trace = kcd_optimize(packed, w, system, KcdConfig(max_iter=4, sweep_mode=mode))
    replayed = w
    for step in trace.steps:
        direction = dense_axis(system, step.dimension)
        replayed = tuple(wi + step.gamma * di for wi, di in zip(replayed, direction))
        assert packed.argmax_error(packed.project(replayed)) == step.error
    assert repr(replayed) == repr(weights) == repr(trace.final_weights)
    assert trace.steps[-1].error == packed.argmax_error(packed.project(weights))


signed_sentence = st.tuples(
    st.lists(st.tuples(tokens, st.tuples(halves, halves, halves)), min_size=1, max_size=6),
    st.lists(tokens, min_size=1, max_size=2),
)


@PROPERTY_SETTINGS
@given(st.lists(signed_sentence, min_size=1, max_size=5), systems(), st.tuples(halves, halves, halves))
def test_an_axis_plans_and_searches_as_its_dense_vector(sentences, system, w):
    # Features and weights of ±0.0: the listed pairs give the bits of
    # the projection over every column.
    packed = PackedCorpus.of(build(sentences))
    for i in range(system.dim):
        dense = dense_axis(system, i)
        # Every listed pair has the dense entry's bits; every other entry is 0.0.
        listed = dict(system.axis(i))
        assert repr([listed.get(j, 0.0) for j in range(system.dim)]) == repr(list(dense))
        plan = packed.plan(system.axis(i))
        want = SearchPlan.of(tuple(enumerate(dense)), packed.project(dense), packed.sentence, packed.size)
        for name in ("slopes", "base", "starts", "run"):
            assert getattr(plan, name).tobytes() == getattr(want, name).tobytes(), name
        start = LineSearchResult.at(packed, w)
        assert repr(line_search(packed, [start], [plan])[0]) == repr(dense_search(packed, w, dense))


# A direction of pairs: an axis, a tilted axis, zero (no breakpoints), or dense.
directions = st.one_of(
    st.integers(0, 2).map(lambda i: ((i, 1.0),)),
    st.tuples(st.integers(0, 2), st.integers(1, 2), halves).map(lambda t: ((t[0], 1.0), ((t[0] + t[1]) % 3, t[2]))),
    st.just(((1, 0.0),)),
    st.tuples(real, real, real).map(lambda d: tuple(enumerate(d))),
)
# Each search: its start weights, its direction, and whether it starts from
# an earlier search's result (along the first axis) rather than bare weights.
batch = st.lists(
    st.tuples(st.one_of(st.tuples(halves, halves, halves), st.tuples(real, real, real)), directions, st.booleans()),
    min_size=1,
    max_size=8,
)


@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.lists(signed_sentence, min_size=1, max_size=1),
        st.lists(st.one_of(signed_sentence, real_sentence, ulp_cluster_sentence()), min_size=1, max_size=6),
    ),
    batch,
)
def test_a_batch_of_searches_equals_each_search_alone(sentences, searches):
    packed = PackedCorpus.of(build(sentences))
    starts, plans = [], []
    for w, d, chained in searches:
        start = LineSearchResult.at(packed, w)
        if chained:
            (start,) = line_search(packed, [start], [packed.plan([(0, 1.0)])])
        starts.append(start)
        plans.append(packed.plan(d))
    alone = [line_search(packed, [start], [plan])[0] for start, plan in zip(starts, plans)]
    # Packs this small build their envelopes by the stack loop alone; the
    # batch builds them by the pruning passes.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envelope, "PASS_MIN_LINES", 0)
        batched = line_search(packed, starts, plans)
    assert repr(batched) == repr(alone)
    assert [r.scores.tobytes() for r in batched] == [r.scores.tobytes() for r in alone]


@st.composite
def ulp_fan_sentence(draw):
    # Three or four lines through one point at gamma = 0, up to rounding:
    # at w = (1, 1, 0) along (0, 0, 1) the line (p/10, q/10, s) scores
    # fl(p/10 + q/10) + gamma * s, and p + q is the same for every line,
    # so all crossings lie at 0 or a few ulps off it.
    total = draw(st.integers(0, 198))
    count = draw(st.integers(3, 4))
    slopes = draw(st.lists(st.integers(-2, 3), min_size=count, max_size=count, unique=True))
    parts = st.integers(max(0, total - 99), min(99, total))
    hyps = []
    for slope in slopes:
        p = draw(parts)
        hyps.append((draw(tokens), (p / 10, (total - p) / 10, slope)))
    return hyps, [hyps[draw(st.integers(0, count - 1))][0]]


@PROPERTY_SETTINGS
@given(st.lists(ulp_fan_sentence(), min_size=1, max_size=8), st.integers(-30, 35))
def test_ulp_clusters_of_three_or_more_lines_at_zero(sentences, k):
    packed = PackedCorpus.of(build(sentences))
    w, d = (1.0, 1.0, 0.0), (0.0, 0.0, 2.0**k)
    intercepts, slopes = packed.project(w), packed.project(d)
    hulls = _hulls([intercepts], [packed.plan(enumerate(d))])
    ((boundaries, rows),) = _sweep(hulls, packed.stats)
    # The flat stack builds each sentence's hull as the bare stack does.
    want = []
    bounds = packed.offsets.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        order = sorted(range(lo, hi), key=lambda row: slopes[row])  # slopes are distinct
        breaks, ranks = hull_by_stack(
            [intercepts[r] for r in order], [slopes[r] for r in order], [r - lo for r in order]
        )
        want.append((tuple(breaks), tuple(ranks)))
    got = split_hulls(hulls, row_ranks(packed))
    assert [[g.hex() for g in b] for b, _ in got] == [[g.hex() for g in b] for b, _ in want]
    assert got == want
    # Boundaries and rows equal the grouping written out on its own.
    want_boundaries, want_rows = intervals_from_hulls(want, packed)
    assert [g.hex() for g in boundaries] == [g.hex() for g in want_boundaries]
    assert list(map(tuple, rows.tolist())) == want_rows
    # The error is the error at the returned weights, at every scale.
    result = dense_search(packed, w, d)
    assert packed.argmax_error(packed.project(result.weights)) == result.error_at_star
    assert result.error_at_star == dense_search(packed, w, (0.0, 0.0, 1.0)).error_at_star


@st.composite
def tie_heavy_rows(draw, count):
    # Rows drawn from a few half-valued ones, so rows repeat and slopes
    # and intercepts tie, signed zeros included.
    pool = draw(st.lists(st.tuples(halves, halves), min_size=1, max_size=5))
    return [draw(st.sampled_from(pool)) for _ in range(count)]


@st.composite
def near_parallel_rows(draw, count):
    # Each column a few ulps around one value: near-parallel slopes and
    # near-equal intercepts along either axis.
    bases = [draw(st.floats(-8.0, 8.0).filter(bool)) for _ in range(2)]
    steps = st.integers(0, 3)
    return [
        tuple(base + float(np.spacing(base)) * draw(steps) for base in bases)
        for _ in range(count)
    ]


@st.composite
def packs(draw):
    """A PackedCorpus of one or many sentences; its statistics are unused."""
    counts = draw(
        st.one_of(
            st.lists(st.integers(1, 15), min_size=1, max_size=1),
            st.lists(st.integers(1, 6), min_size=2, max_size=12),
        )
    )
    rows = draw(st.one_of(tie_heavy_rows(sum(counts)), near_parallel_rows(sum(counts))))
    stats = np.zeros((len(rows), 10), dtype=np.int64)
    return pack_rows(np.array(rows, dtype=np.float64), counts, stats)


vectors = st.one_of(
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)]),
    st.tuples(halves, halves),
)


@PROPERTY_SETTINGS
@given(packs(), st.lists(vectors, min_size=1, max_size=3), vectors)
def test_cached_line_order_is_the_full_sort(packed, weights, d):
    plan = packed.plan(enumerate(d))
    for w in weights:  # one plan serves every search along d
        intercepts = packed.project(w)
        full = np.lexsort((row_ranks(packed), -intercepts, plan.slopes, packed.sentence))
        owner, slope = packed.sentence[full], plan.slopes[full]
        head = np.ones(len(full), dtype=bool)
        head[1:] = (owner[1:] != owner[:-1]) | (slope[1:] != slope[:-1])
        assert plan.heads(intercepts).tolist() == full[head].tolist()


# Few distinct values, so ties and -0.0 against 0.0 are common, and any finite float.
intercept = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)
short_sentences = st.lists(st.lists(intercept, min_size=1, max_size=8), max_size=8)
# One long sentence at any place among one-line sentences.
skewed_sentences = st.builds(
    lambda long, singles, at: singles[:at] + [long] + singles[at:],
    st.lists(intercept, min_size=50, max_size=300),
    st.lists(st.lists(intercept, min_size=1, max_size=1), max_size=60),
    st.integers(0, 60),
)


@PROPERTY_SETTINGS
@given(st.one_of(short_sentences, skewed_sentences))
@example([])
@example([[0.0, -0.0, 0.0], [-0.0], [0.0, -0.0]])
@example([[1.0] * 200 + [2.0, 0.5]] + [[3.0], [-3.0]] * 20)
def test_prefilter_keeps_each_sentences_running_maxima_from_both_ends(sentences):
    intercepts = np.array([a for ints in sentences for a in ints], dtype=np.float64)
    owner = np.repeat(np.arange(len(sentences)), [len(ints) for ints in sentences])
    mask = _may_reach_hull(intercepts, owner)
    assert mask.tolist() == running_maxima_from_both_ends(sentences)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]), st.integers(-30, 35))
def test_scaling_the_direction_keeps_the_error_and_scales_a_bounded_step(seed, min_features, k):
    _, packed, _, w, d = ray_instance(seed, min_features=min_features)
    d_k = tuple(x * 2.0**k for x in d)
    unscaled, scaled = dense_search(packed, w, d), dense_search(packed, w, d_k)
    assert scaled.error_at_star == unscaled.error_at_star
    # An unbounded winner steps 1.0 past its edge, which does not scale.
    ((boundaries, _),) = _sweep(_hulls([packed.project(w)], [packed.plan(enumerate(d))]), packed.stats)
    if boundaries and boundaries[0] < unscaled.gamma_star < boundaries[-1]:
        assert scaled.gamma_star == unscaled.gamma_star * 2.0**-k
        assert [x.hex() for x in scaled.weights] == [x.hex() for x in unscaled.weights]
