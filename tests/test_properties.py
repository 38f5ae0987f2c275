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
from hypothesis import given, settings
from hypothesis import strategies as st

from rotamert.corpus import Hypothesis, build_corpus
from rotamert.descent import SWEEP_MODES, KcdConfig, basis_directions, kcd_optimize
from rotamert.envelope import PackedCorpus, _intervals, line_search
from rotamert.rotation import CoordinateSystem

from instances import ray_instance
from oracles import hull_by_stack, intervals_from_hulls, split_hulls

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
    return repr(line_search(PackedCorpus.of(build(sentences)), w, d))


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


@PROPERTY_SETTINGS
@given(descents, st.permutations(basis_directions(3)), st.sampled_from(SWEEP_MODES))
def test_every_trace_error_is_the_error_at_its_weights(descent, directions, mode):
    sentences, w = descent
    packed = PackedCorpus.of(build(sentences))
    system = CoordinateSystem(tuple(directions))
    weights, trace = kcd_optimize(packed, w, system, KcdConfig(max_iter=4, sweep_mode=mode))
    replayed = w
    for step in trace.steps:
        direction = system.directions[step.dimension]
        replayed = tuple(wi + step.gamma * di for wi, di in zip(replayed, direction))
        assert packed.argmax_error(packed.project(replayed)) == step.error
    assert replayed == weights == trace.final_weights
    assert trace.steps[-1].error == packed.argmax_error(packed.project(weights))


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
    hulls, boundaries, rows = _intervals(packed, intercepts, packed.plan(d))
    # The flat stack builds each sentence's hull as the bare stack does.
    want = []
    bounds = packed.offsets.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        order = sorted(range(lo, hi), key=lambda row: slopes[row])  # slopes are distinct
        breaks, ranks = hull_by_stack(
            [intercepts[r] for r in order], [slopes[r] for r in order], [r - lo for r in order]
        )
        want.append((tuple(breaks), tuple(ranks)))
    got = split_hulls(hulls, packed.rank)
    assert [[g.hex() for g in b] for b, _ in got] == [[g.hex() for g in b] for b, _ in want]
    assert got == want
    # Boundaries and rows equal the grouping written out on its own.
    want_boundaries, want_rows = intervals_from_hulls(want, packed)
    assert [g.hex() for g in boundaries] == [g.hex() for g in want_boundaries]
    assert list(map(tuple, rows.tolist())) == want_rows
    # The error is the error at the returned weights, at every scale.
    result = line_search(packed, w, d)
    assert packed.argmax_error(packed.project(result.weights)) == result.error_at_star
    assert result.error_at_star == line_search(packed, w, (0.0, 0.0, 1.0)).error_at_star


halves = st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5])


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
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    sentence = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    rank = np.arange(len(sentence), dtype=np.int64) - offsets[sentence]
    stats = np.zeros((len(sentence), 10), dtype=np.int64)
    return PackedCorpus(np.array(rows, dtype=np.float64), offsets, stats, sentence, rank)


vectors = st.one_of(
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)]),
    st.tuples(halves, halves),
)


@PROPERTY_SETTINGS
@given(packs(), st.lists(vectors, min_size=1, max_size=3), vectors)
def test_cached_line_order_is_the_full_sort(packed, weights, d):
    plan = packed.plan(d)
    for w in weights:  # one plan serves every search along d
        intercepts = packed.project(w)
        full = np.lexsort((packed.rank, -intercepts, plan.slopes, packed.sentence))
        owner, slope = packed.sentence[full], plan.slopes[full]
        head = np.ones(len(full), dtype=bool)
        head[1:] = (owner[1:] != owner[:-1]) | (slope[1:] != slope[:-1])
        assert plan.heads(intercepts).tolist() == full[head].tolist()


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]), st.integers(-30, 35))
def test_scaling_the_direction_keeps_the_error_and_scales_a_bounded_step(seed, min_features, k):
    _, packed, _, w, d = ray_instance(seed, min_features=min_features)
    d_k = tuple(x * 2.0**k for x in d)
    unscaled, scaled = line_search(packed, w, d), line_search(packed, w, d_k)
    assert scaled.error_at_star == unscaled.error_at_star
    # An unbounded winner steps 1.0 past its edge, which does not scale.
    _, boundaries, _ = _intervals(packed, packed.project(w), packed.plan(d))
    if boundaries and boundaries[0] < unscaled.gamma_star < boundaries[-1]:
        assert scaled.gamma_star == unscaled.gamma_star * 2.0**-k
        assert [x.hex() for x in scaled.weights] == [x.hex() for x in unscaled.weights]
