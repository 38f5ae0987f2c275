import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotamert.bleu import Vocabulary, reference_columns, row_bleu, row_errors
from rotamert.corpus import (
    Hypothesis,
    SentenceEntry,
    TuningCorpus,
    build_corpus,
    parse_nbest,
    parse_references,
    read_nbest,
)
from rotamert import envelope
from rotamert.envelope import (
    RESCORE_BOUND,
    LineSearchResult,
    PackedCorpus,
    SearchPlan,
    line_search,
    _hulls,
    _may_reach_hull,
    _sweep,
)
from rotamert.errors import ConfigError, DimensionMismatch, InputError, NoReferences
from rotamert.synthetic import SynthSpec, generate

from instances import Line, random_corpus, random_lines, ray_instance, row_ranks, search
from oracles import (
    dot,
    envelope_by_enumeration,
    first_argmax,
    flat_hulls,
    hull_by_stack,
    reselect_interval_stats,
    interval_probes,
    ray_probe_min_error,
    selection_error,
    split_hulls,
)


class TestPackedProjection:
    def mixed_magnitude_corpus(self, seed, sentences=30, hyps=40, dim=12):
        # Signs and magnitudes from 1e-8 to 1e8 make every summation
        # order round differently, so a reordered (BLAS) sum shows up.
        rng = np.random.default_rng(seed)

        def draw(size):
            return rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-8, 8, size)

        nbest = {
            s: [
                Hypothesis(s, k, ("t", str(k)), tuple(draw(dim).tolist()))
                for k in range(hyps)
            ]
            for s in range(sentences)
        }
        refs = {s: [("t", "0")] for s in range(sentences)}
        return build_corpus(nbest, refs), tuple(draw(dim).tolist()), tuple(draw(dim).tolist())

    def test_packed_scores_equal_dot_bit_for_bit(self):
        for seed in range(5):
            corpus, w, d = self.mixed_magnitude_corpus(seed)
            packed = PackedCorpus.of(corpus)
            hyps = [h for entry in corpus.entries for h in entry.hypotheses]
            for v in (w, d):
                got = [x.hex() for x in packed.project(v).tolist()]
                expected = [dot(v, h.features).hex() for h in hyps]
                assert got == expected, f"seed {seed}"

    def test_line_search_projection_equals_dot_bit_for_bit(self):
        # The hulls line_search builds equal those of lines scored by dot.
        corpus, w, d = self.mixed_magnitude_corpus(7, sentences=3, hyps=60)
        packed = PackedCorpus.of(corpus)
        hulls = _hulls([packed.project(w)], [packed.plan(enumerate(d))])
        for entry, (breaks, segments) in zip(corpus.entries, split_hulls(hulls, row_ranks(packed))):
            want_breaks, want_segments = one_hull(
                [
                    Line(dot(w, h.features), dot(d, h.features), k)
                    for k, h in enumerate(entry.hypotheses)
                ]
            )
            assert [x.hex() for x in breaks] == [x.hex() for x in want_breaks]
            assert segments == want_segments

    def test_dimension_checked(self):
        packed = PackedCorpus.of(random_corpus(5)[0])
        with pytest.raises(DimensionMismatch):
            packed.project((0.0,) * (packed.feature_dim + 1))
        # Starting weights too, short or long, before they are projected.
        for w in ((1.0,) * (packed.feature_dim - 1), (1.0,) * (packed.feature_dim + 1)):
            with pytest.raises(DimensionMismatch, match=f"^{len(w)} vector entries for "):
                LineSearchResult.at(packed, w)

    def test_packed_selection_keeps_lowest_rank_on_ties(self):
        nbest = {0: [Hypothesis(0, k, ("t", str(k)), (1.0, 0.0)) for k in range(3)]}
        nbest[0].append(Hypothesis(0, 3, ("u",), (2.0, -1.0)))
        corpus = build_corpus(nbest, {0: [("t",)]})
        packed = PackedCorpus.of(corpus)
        assert first_argmax(packed, packed.project((1.0, 1.0))) == [0]
        assert first_argmax(packed, packed.project((-1.0, -2.0))) == [3]

    def test_overflowing_scores_are_rejected(self):
        nbest = {0: [Hypothesis(0, 0, ("a",), (1e300, 1.0)), Hypothesis(0, 1, ("b",), (-1e300, 1.0))]}
        corpus = build_corpus(nbest, {0: [("a",)]})
        packed = PackedCorpus.of(corpus)
        with pytest.raises(InputError):
            search(packed, (1e10, 1.0), (0.0, 1.0))
        with pytest.raises(InputError):
            search(packed, (1.0, 1.0), (float("nan"), 1.0))


@pytest.mark.parametrize(
    "nbest, refs",
    [
        ("adversarial.nbest", ["adversarial.ref"]),
        ("golden/closed.nbest", ["golden/closed.ref0", "golden/closed.ref1"]),
        ("golden/open.nbest", ["golden/open.ref0", "golden/open.ref1"]),
    ],
)
def test_the_readers_pack_what_the_parsed_corpus_packs(nbest, refs):
    # Lines interleaved across sentences and an exact duplicate, too.
    data = Path(__file__).parent / "data"
    lines = (data / nbest).read_text().splitlines()
    lines = sorted(lines + lines[1:2], key=lambda line: -len(line))
    streams = [(data / ref).read_text().splitlines() for ref in refs]
    vocabulary = Vocabulary()
    read = read_nbest(lines, nbest, vocabulary)
    packed = PackedCorpus.pack(read, reference_columns(streams, refs, vocabulary))
    by_id, names = parse_nbest(lines)
    parsed = PackedCorpus.of(build_corpus(by_id, parse_references(streams), names))
    assert read.ids == sorted(read.ids)
    for attribute in ("features", "offsets", "stats", "sentence"):
        expected = getattr(parsed, attribute)
        assert getattr(packed, attribute).dtype == expected.dtype
        np.testing.assert_array_equal(getattr(packed, attribute), expected)
    assert packed.feature_names == parsed.feature_names


def test_a_hand_built_corpus_without_references_is_refused():
    hyp = Hypothesis(0, 0, ("a",), (1.0,))
    corpus = TuningCorpus((SentenceEntry(0, (hyp,), ()),), ("f0",))
    with pytest.raises(NoReferences, match="^sentence 0 has no non-blank reference$"):
        PackedCorpus.of(corpus)


def test_a_crossing_that_overflows_is_rejected():
    # The two lines cross at (-1e308 - 1e308) / 1e-300 = -inf.
    nbest = {0: [Hypothesis(0, 0, ("a",), (-1e308, 0.0)), Hypothesis(0, 1, ("b",), (1e308, 1e-300))]}
    packed = PackedCorpus.of(build_corpus(nbest, {0: [("a",)]}))
    with pytest.raises(InputError):
        search(packed, (1.0, 0.0), (0.0, 1.0))


def test_a_batch_of_searches_on_random_packs_equals_each_search_alone():
    # Larger packs than the property tests draw: axes, dense directions and
    # a zero one, from bare weights and from earlier results, in one batch.
    for seed in range(30):
        corpus, rng = random_corpus(seed, max_sentences=40, max_hyps=30)
        packed = PackedCorpus.of(corpus)
        dim = packed.feature_dim
        plans = [packed.plan([(i, 1.0)]) for i in range(dim)]
        plans += [packed.plan(enumerate(rng.normal(0.0, 1.0, dim).tolist())) for _ in range(3)]
        plans.append(packed.plan([(0, 0.0)]))
        starts = [LineSearchResult.at(packed, rng.normal(0.0, 1.0, dim).tolist()) for _ in plans]
        starts[1::2] = line_search(packed, starts[1::2], plans[::2][: len(starts[1::2])])
        alone = [line_search(packed, [start], [plan])[0] for start, plan in zip(starts, plans)]
        assert repr(line_search(packed, starts, plans)) == repr(alone), f"seed {seed}"
    assert line_search(packed, [], []) == []


def overflow_pack():
    """A pack on which a search along axis 1 fails its step check and one
    along axis 2 meets a crossing that overflows; along (1, 0.0) it has no
    breakpoints.  All start at (1, 0, 0)."""
    good, bad = ("a", "b", "c", "d"), ("x", "y", "z", "w")
    nbest = {
        # Along axis 1 the better line (the first) overtakes at gamma = 17;
        # the step to 18 scores it 1e307 * 18, which overflows.
        0: [Hypothesis(0, 0, good, (0.0, 1e307, 0.0)), Hypothesis(0, 1, bad, (1.7e308, 0.0, 0.0))],
        # Along axis 2 these cross at (-1e308 - 1e308) / 1e-300 = -inf.
        1: [Hypothesis(1, 0, bad, (-1e308, 0.0, 0.0)), Hypothesis(1, 1, bad, (1e308, 0.0, 1e-300))],
    }
    packed = PackedCorpus.of(build_corpus(nbest, {0: [good], 1: [good]}))
    return packed, LineSearchResult.at(packed, (1.0, 0.0, 0.0))


def test_a_failing_search_raises_its_error():
    # Which of several failing searches a batch raises is left open: the
    # serial error is kcd_lockstep's to find (see test_descent).
    packed, start = overflow_pack()
    calm, stepped, crossed = packed.plan([(1, 0.0)]), packed.plan([(1, 1.0)]), packed.plan([(2, 1.0)])
    step_error = "^feature values times weights overflow: a hypothesis score is not finite$"
    crossing_error = "^a breakpoint of the search ray is not finite$"
    for plans, message in (
        ([stepped], step_error),
        ([crossed], crossing_error),
        ([crossed, calm], crossing_error),
    ):
        with pytest.raises(InputError, match=message):
            line_search(packed, [start] * len(plans), plans)
    assert line_search(packed, [start], [calm])[0].gamma_star == 0.0


def test_plan_of_another_corpus_is_refused():
    packed, other = (PackedCorpus.of(random_corpus(seed)[0]) for seed in (1, 2))
    plan = other.plan(enumerate((1.0,) * other.feature_dim))
    start = LineSearchResult.at(packed, (0.5,) * packed.feature_dim)
    with pytest.raises(ConfigError, match="^the search plan was made for another packed corpus$"):
        line_search(packed, [start], [plan])


@pytest.mark.parametrize("rows", ["equal", "unequal"])
def test_a_start_or_a_plan_made_on_another_pack_is_refused(rows):
    # Closed and open of one synth spec have 30 rows each; a pack of
    # another spec has 20.  Identity decides, not the row count.
    closed, opened = (PackedCorpus.of(c) for c in generate(SynthSpec(6, 5, 3, seed=4)))
    other = opened if rows == "equal" else PackedCorpus.of(generate(SynthSpec(4, 5, 3, seed=4))[0])
    assert (len(other.features) == len(closed.features)) == (rows == "equal")
    w = (0.3, -0.2, 0.5)
    own_start, own_plan = LineSearchResult.at(other, w), other.plan([(1, 1.0)])
    with pytest.raises(ConfigError, match="^the search start was made on another packed corpus$"):
        line_search(other, [LineSearchResult.at(closed, w)], [own_plan])
    with pytest.raises(ConfigError, match="^the search plan was made for another packed corpus$"):
        line_search(other, [own_start], [closed.plan([(1, 1.0)])])
    assert line_search(other, [own_start], [own_plan]) == [search(other, w, (0.0, 1.0, 0.0))]


def test_only_coordinate_axes_keep_their_plans_bit_for_bit():
    packed = PackedCorpus.of(random_corpus(3, min_features=2)[0])
    dim = packed.feature_dim
    axis = packed.plan(((1, 1.0),))
    assert axis is packed.plan([(1, 1.0)])
    assert axis.slopes.tobytes() == packed.project((0.0, 1.0) + (0.0,) * (dim - 2)).tobytes()
    # Other pairs, a dense axis too, are planned afresh.
    for d in (((1, 2.0),), ((0, 1.0), (1, -0.0)), tuple(enumerate((1.0,) + (0.0,) * (dim - 1)))):
        plan = packed.plan(d)
        assert plan is not packed.plan(d) and plan.direction == d
    assert list(packed._axis_plans) == [1]
    # Pairs are projected in index order, whatever order they come in.
    assert packed.plan(((1, 0.5), (0, 2.0))).direction == ((0, 2.0), (1, 0.5))


class TestPlanPairs:
    """A plan reads each item as one (index, coefficient) pair, so a search
    steps along the direction it searched."""

    def pack(self, seed=1):
        return PackedCorpus.of(generate(SynthSpec(6, 4, 3, seed=seed))[0]), (0.3,) * 3

    def test_a_repeated_index_is_refused(self):
        packed, w = self.pack()
        with pytest.raises(ConfigError, match="^direction index 0 appears more than once$"):
            packed.plan([(0, 1.0), (0, 2.0)])
        # The one pair searches and steps along its dense vector.
        dense = search(packed, w, (3.0, 0.0, 0.0))
        (paired,) = line_search(packed, [LineSearchResult.at(packed, w)], [packed.plan([(0, 3.0)])])
        assert paired == dense and paired.weights == dense.weights

    @pytest.mark.parametrize("index", [-1, 3, 5])
    def test_an_index_out_of_range_is_refused(self, index):
        packed, _ = self.pack(seed=2)
        with pytest.raises(DimensionMismatch, match=f"^direction index {index} out of range for 3 features$"):
            packed.plan([(index, 1.0)])

    # A pair's index and coefficient are read by as_index and as_real, which name them.
    FIELD_REFUSALS = {
        (0, "x"): "direction coefficient must be a real number, got 'x'",
        (True, 1.0): "direction index must be an integer, got True",
        (0.0, 1.0): "direction index must be an integer, got 0.0",
        ("0", 1.0): "direction index must be an integer, got '0'",
        (0, None): "direction coefficient must be a real number, got None",
        (0, 1j): "direction coefficient must be a real number, got 1j",
    }

    @pytest.mark.parametrize(
        "item", [(0, "x"), (True, 1.0), (0.0, 1.0), ("0", 1.0), (0, None), (0, 1j), (0,), (0, 1.0, 2.0), 5]
    )
    def test_an_item_that_is_not_an_integer_real_pair_is_refused(self, item):
        packed, _ = self.pack()
        message = "a direction item must be an (index, coefficient) pair of an integer and a real number"
        message = self.FIELD_REFUSALS.get(item, f"{message}, got {item!r}")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            packed.plan([item])

    def test_dense_entries_are_real_numbers(self):
        packed, w = self.pack()
        bad = ((1.0, "a", 0.0), (1.0, True, 0.0), (None, 0.0, 0.0))
        cases = [(d, "real numbers, got " + " ".join(map(repr, d))) for d in bad]
        for d, expected in cases + [(5, "an iterable of real numbers, got 5")]:
            message = f"vector entries must be {expected}"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                LineSearchResult.at(packed, d)
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                packed.project(d)
        # line_search takes starts and plans, never bare vectors.
        start, plan = LineSearchResult.at(packed, w), packed.plan([(0, 1.0)])
        with pytest.raises(ConfigError, match="^start must be a LineSearchResult, got tuple$"):
            line_search(packed, [w], [plan])
        with pytest.raises(ConfigError, match="^plan must be a SearchPlan, got tuple$"):
            line_search(packed, [start], [(1.0, 0.0, 0.0)])
        # It takes sequences of starts and plans, of equal length.
        with pytest.raises(ConfigError, match="^plans must be a sequence, got 5$"):
            line_search(packed, [start], 5)
        with pytest.raises(ConfigError, match="^1 search starts for 2 plans$"):
            line_search(packed, [start], [plan, plan])
        # A direction of pairs that is not iterable is refused as the vector is.
        message = "a direction must be an iterable of (index, coefficient) pairs, got 5"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            packed.plan(5)

    def test_numpy_numbers_plan_as_python_ones(self):
        packed, w = self.pack()
        plan = packed.plan([(np.int64(2), np.float64(0.5)), (np.intp(0), np.float32(2.0))])
        assert plan.direction == ((0, 2.0), (2, 0.5))
        assert all(type(i) is int and type(c) is float for i, c in plan.direction)
        assert line_search(packed, [LineSearchResult.at(packed, w)], [plan]) == [search(packed, w, (2.0, 0.0, 0.5))]

    @pytest.mark.parametrize("coefficient", [float("nan"), float("inf")])
    def test_a_non_finite_coefficient_is_refused_by_the_overflow_check(self, coefficient):
        packed, _ = self.pack()
        with pytest.raises(InputError, match="^feature values times weights overflow"):
            packed.plan([(0, coefficient)])


def one_hull(lines):
    """``_hulls`` on a single sentence: (breakpoints, segment labels) as tuples.

    The lines become rows in label order, as a pack's rows come in rank order.
    """
    lines = sorted(lines, key=lambda l: l.hyp_index)
    labels = np.array([l.hyp_index for l in lines], dtype=np.int64)
    plan = SearchPlan.of(
        (), np.array([l.slope for l in lines], dtype=np.float64), np.zeros(len(lines), dtype=np.int64), 1
    )
    hulls = _hulls([np.array([l.intercept for l in lines], dtype=np.float64)], [plan])
    ((breaks, segments),) = split_hulls(hulls, labels)
    return breaks, segments


class TestUpperEnvelope:
    def test_single_line(self):
        assert one_hull([Line(1.0, 2.0, 0)]) == ((), (0,))

    def test_parallel_lines_keep_highest_intercept(self):
        lines = [Line(1.0, 0.5, 0), Line(3.0, 0.5, 1), Line(2.0, 0.5, 2)]
        assert one_hull(lines) == ((), (1,))

    def test_identical_lines_keep_lowest_index(self):
        lines = [Line(1.0, 0.5, 2), Line(1.0, 0.5, 0), Line(1.0, 0.5, 1)]
        assert one_hull(lines) == ((), (0,))

    def test_dominated_middle_line_is_dropped(self):
        # y = -x and y = x meet at 0; y = -1 stays below both everywhere.
        lines = [Line(0.0, -1.0, 0), Line(-1.0, 0.0, 1), Line(0.0, 1.0, 2)]
        assert one_hull(lines) == ((0.0,), (0, 2))

    def test_three_way_meeting_point(self):
        # All three lines pass through (0, 1); the middle one survives
        # nowhere since it never strictly exceeds the other two.
        lines = [Line(1.0, -1.0, 0), Line(1.0, 0.0, 1), Line(1.0, 1.0, 2)]
        assert one_hull(lines) == ((0.0,), (0, 2))

    def test_matches_enumeration_on_random_lines(self):
        for seed in range(300):
            lines = random_lines(seed)
            assert one_hull(lines) == envelope_by_enumeration(lines), f"seed {seed}"

    def test_breakpoints_strictly_increase(self):
        for seed in range(100, 150):
            breaks, segments = one_hull(random_lines(seed))
            assert all(a < b for a, b in zip(breaks, breaks[1:]))
            assert len(segments) == len(breaks) + 1


def bare_hull(intercepts, slopes, labels):
    """The float stack on every slope-distinct line, with no prefilter."""
    order = sorted(
        range(len(labels)), key=lambda i: (slopes[i], -intercepts[i], labels[i])
    )
    kept = [
        i for pos, i in enumerate(order) if pos == 0 or slopes[i] != slopes[order[pos - 1]]
    ]
    return hull_by_stack(
        [intercepts[i] for i in kept],
        [slopes[i] for i in kept],
        [labels[i] for i in kept],
    )


def tie_heavy_lines(rng):
    count = int(rng.integers(1, 30))
    return (
        rng.integers(-2, 3, count).astype(float).tolist(),
        rng.integers(-2, 3, count).astype(float).tolist(),
    )


def near_parallel_lines(rng, scale):
    # Slopes a few ulps apart around one base; intercepts either spread
    # or a few ulps apart too, all at the given scale.
    count = int(rng.integers(2, 25))
    steps = np.cumsum(rng.integers(0, 4, count))
    base = float(rng.normal()) * scale
    slopes = [float(x) for x in base + np.spacing(base) * steps]
    if rng.random() < 0.5:
        intercepts = (rng.normal(0.0, 1.0, count) * scale).tolist()
    else:
        centre = float(rng.normal()) * scale
        intercepts = (centre + np.spacing(centre) * rng.integers(-3, 4, count)).tolist()
    order = rng.permutation(count)
    return [intercepts[i] for i in order], [slopes[i] for i in order]


def concurrent_lines(rng):
    # Four to eight lines through one point, up to a few ulps off it, at
    # a random scale: the float crossing tests of such lines depend on
    # which neighbours they meet.
    count = int(rng.integers(4, 9))
    x0, y0 = rng.normal(size=2) * 10.0 ** rng.integers(-3, 4, 2)
    slopes = np.sort(rng.normal(size=count)) * 10.0 ** int(rng.integers(-3, 4))
    intercepts = y0 - slopes * x0
    intercepts += np.spacing(intercepts) * rng.integers(-4, 5, count)
    return intercepts.tolist(), slopes.tolist()


@st.composite
def concurrent_line_sets(draw):
    """Ten sets of four to eight lines through one point, each up to a few ulps off it."""
    real = st.floats(-100.0, 100.0, allow_nan=False)
    sets = []
    for _ in range(10):
        count = draw(st.integers(4, 8))
        x0, y0 = draw(real), draw(real)
        slopes = draw(st.lists(real, min_size=count, max_size=count, unique=True))
        ulps = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count))
        intercepts = [y0 - b * x0 for b in slopes]
        sets.append(([a + math.ulp(a) * k for a, k in zip(intercepts, ulps)], slopes))
    return sets


def cascade_lines(sentences=400, lines=100):
    """Lines that pruning passes drop one per sentence per pass: slopes 0..99
    with concave intercepts sqrt(i), all on the envelope, then the last one
    far above, which pushes the others off it from the right."""
    intercepts = np.sqrt(np.arange(lines, dtype=np.float64))
    intercepts[-1] = 1e6
    return [(intercepts.tolist(), list(map(float, range(lines))))] * sentences


class TestDominationPrefilter:
    """``_hulls`` (prefiltered) against the bare stack, bit for bit."""

    def assert_same_hulls(self, line_sets, context):
        # All sets go through one _hulls call, one sentence each.
        intercepts = np.array([a for ints, _ in line_sets for a in ints], dtype=float)
        slopes = np.array([b for _, bs in line_sets for b in bs], dtype=float)
        labels = np.array([k for ints, _ in line_sets for k in range(len(ints))])
        sentence = np.repeat(np.arange(len(line_sets)), [len(ints) for ints, _ in line_sets])
        hulls = _hulls([intercepts], [SearchPlan.of((), slopes, sentence, len(line_sets))])
        for s, ((breaks, segments), (ints, bs)) in enumerate(
            zip(split_hulls(hulls, labels), line_sets)
        ):
            want_breaks, want_segments = bare_hull(ints, bs, list(range(len(ints))))
            assert list(segments) == want_segments, f"{context}, sentence {s}"
            assert [x.hex() for x in breaks] == [x.hex() for x in want_breaks], (
                f"{context}, sentence {s}"
            )

    def test_random_lines_match_the_bare_stack(self):
        for first in range(0, 3000, 20):
            sets = []
            for seed in range(first, first + 20):
                lines = random_lines(seed)
                sets.append(([l.intercept for l in lines], [l.slope for l in lines]))
            self.assert_same_hulls(sets, f"random_lines seeds {first}..{first + 19}")

    def test_tie_heavy_lines_match_the_bare_stack(self):
        rng = np.random.default_rng(11)
        for batch in range(100):
            self.assert_same_hulls([tie_heavy_lines(rng) for _ in range(10)], f"batch {batch}")

    @pytest.mark.parametrize("exponent", range(-12, 13, 2))
    def test_near_parallel_lines_match_the_bare_stack(self, exponent):
        rng = np.random.default_rng(100 + exponent)
        for batch in range(25):
            sets = [near_parallel_lines(rng, 10.0**exponent) for _ in range(10)]
            self.assert_same_hulls(sets, f"scale 1e{exponent}, batch {batch}")

    @pytest.mark.parametrize("passes", [0, 1, 2, None], ids=["0", "1", "2", "default"])
    def test_capped_passes_match_the_bare_stack(self, passes, monkeypatch):
        # Survivors of the capped passes go through the stack loop, which
        # must meet the same envelopes: each pass drops the line the loop
        # would pop next in every group.  The passes run on any input.
        monkeypatch.setattr(envelope, "PASS_MIN_LINES", 0)
        if passes is not None:
            monkeypatch.setattr(envelope, "HULL_PASSES", passes)
        for first in range(0, 600, 20):
            sets = []
            for seed in range(first, first + 20):
                lines = random_lines(seed)
                sets.append(([l.intercept for l in lines], [l.slope for l in lines]))
            self.assert_same_hulls(sets, f"random_lines seeds {first}..{first + 19}, {passes} passes")
        rng = np.random.default_rng(12)
        for batch in range(20):
            self.assert_same_hulls([tie_heavy_lines(rng) for _ in range(10)], f"batch {batch}, {passes} passes")
        for exponent in (-12, 0, 12):
            sets = [near_parallel_lines(rng, 10.0**exponent) for _ in range(50)]
            self.assert_same_hulls(sets, f"scale 1e{exponent}, {passes} passes")
        self.assert_same_hulls(cascade_lines(), f"cascade, {passes} passes")
        for batch in range(5):
            sets = [concurrent_lines(rng) for _ in range(1000)]
            self.assert_same_hulls(sets, f"concurrent, batch {batch}, {passes} passes")

    @pytest.mark.parametrize("passes", [0, 1, 2, None], ids=["0", "1", "2", "default"])
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(sets=concurrent_line_sets())
    @example(
        # Dropping lines 1 and 2 in one pass loses line 2, which the stack
        # keeps for a few ulps after it pops line 1.
        sets=[(
            [23.885173986074463, -10.987747262269744, -42.244278407609436, -54.36535979285584],
            [-41.16442734045872, 19.245467928221938, 73.39073896833818, 94.3879262074387],
        )],
    )
    def test_nearly_concurrent_lines_match_the_bare_stack(self, passes, sets):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(envelope, "PASS_MIN_LINES", 0)
            if passes is not None:
                patch.setattr(envelope, "HULL_PASSES", passes)
            self.assert_same_hulls(sets, f"concurrent, {passes} passes")

    def test_the_cascade_needs_no_stack_at_the_default_cap(self, monkeypatch):
        # Each pass drops one line of each sentence, about 98 passes in all.
        def refuse(*args):
            raise AssertionError("the stack loop ran")

        monkeypatch.setattr(envelope, "_stack", refuse)
        self.assert_same_hulls(cascade_lines(), "cascade")
        monkeypatch.setattr(envelope, "HULL_PASSES", 90)
        with pytest.raises(AssertionError, match="^the stack loop ran$"):
            self.assert_same_hulls(cascade_lines(), "cascade")

    def test_dominated_lines_are_dropped_and_hull_lines_kept(self):
        rng = np.random.default_rng(3)
        slopes = np.sort(rng.normal(0.0, 1.0, 200))
        intercepts = rng.normal(0.0, 1.0, 200)
        owner = np.zeros(200, dtype=np.int64)
        mask = _may_reach_hull(intercepts, owner)
        _, segments = hull_by_stack(intercepts.tolist(), slopes.tolist(), list(range(200)))
        assert mask[segments].all()
        assert mask[[0, -1]].all()  # the extreme slopes always stay
        assert mask.sum() < 50

    def test_equal_intercepts_do_not_dominate(self):
        # The middle line is only tied on its left: it is kept.
        owner = np.zeros(3, dtype=np.int64)
        assert _may_reach_hull(np.array([1.0, 1.0, 2.0]), owner).tolist() == [
            True,
            True,
            True,
        ]
        assert _may_reach_hull(np.array([1.5, 1.0, 2.0]), owner).tolist() == [
            True,
            False,
            True,
        ]

    def test_skewed_sentences_filter_each_sentence_alone(self):
        # One long sentence among many one-line sentences: the long one
        # gets the mask it gets alone, and every one-line sentence stays.
        rng = np.random.default_rng(5)
        sets = [(rng.normal(0.0, 1.0, 300).tolist(), rng.normal(0.0, 1.0, 300).tolist())]
        sets += [([float(rng.normal())], [float(rng.normal())]) for _ in range(60)]
        wave = np.sin(np.arange(300.0))  # most of it dominated
        alone = _may_reach_hull(wave, np.zeros(300, dtype=np.int64))
        assert not alone.all()
        # One-line sentences on both sides, above and below every wave
        # line, so a maximum carried across a sentence boundary shows.
        singles = np.tile([5.0, -5.0], 30)
        owner = np.repeat(np.arange(61), [1] * 30 + [300] + [1] * 30)
        mask = _may_reach_hull(np.concatenate([singles[:30], wave, singles[30:]]), owner)
        assert mask[30:330].tolist() == alone.tolist()
        assert mask[:30].all() and mask[330:].all()
        self.assert_same_hulls(sets, "skewed")


def two_hyp_sweep(gammas):
    """``_sweep`` over one two-hypothesis hull per breakpoint; the second
    hypothesis of each sentence matches its reference."""
    nbest = {
        s: [Hypothesis(s, 0, ("a",), (0.0,)), Hypothesis(s, 1, ("b",), (1.0,))]
        for s in range(len(gammas))
    }
    corpus = build_corpus(nbest, {s: [("b",)] for s in range(len(gammas))})
    packed = PackedCorpus.of(corpus)
    hulls = [((g,), (0, 1)) for g in gammas]
    ((boundaries, rows),) = _sweep(flat_hulls(hulls, packed.offsets.tolist()), packed.stats)
    return boundaries, rows[:, 0].tolist()  # unigram matches per interval


class TestSweepIntervals:
    def test_interval_stats_match_from_scratch_reselection(self):
        for seed in range(60):
            _, packed, lines_per_sentence, w, d = ray_instance(seed)
            ((boundaries, rows),) = _sweep(_hulls([packed.project(w)], [packed.plan(enumerate(d))]), packed.stats)
            expected = reselect_interval_stats(lines_per_sentence, packed, boundaries)
            assert list(map(tuple, rows.tolist())) == expected, f"seed {seed}"

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_breakpoint_rejected(self, gamma):
        with pytest.raises(InputError):
            two_hyp_sweep([gamma])

    def test_coalesced_boundaries_share_one_interval(self):
        boundaries, matches = two_hyp_sweep([1.0, 1.0 + 5e-10, 2.0])
        assert boundaries == [1.0, 2.0]
        assert matches == [0, 2, 3]

    @pytest.mark.parametrize("exponent", [-40, 0, 40])
    def test_grouping_is_relative_to_the_boundary(self, exponent):
        # Within 2**-30 of the group start joins it at every scale; 2**-29 does not.
        scale = 2.0**exponent
        gammas = [-3.0 * scale, -3.0 * (1 - 2.0**-31) * scale, scale, (1 + 2.0**-29) * scale]
        boundaries, matches = two_hyp_sweep(gammas)
        assert boundaries == [gammas[0], gammas[2], gammas[3]]
        assert matches == [0, 2, 3, 4]

    def test_singleton_and_grouped_breakpoints(self):
        # Far apart: every breakpoint is its own boundary, and no grouping
        # loop runs.  Mixed: the loop groups 1 + 2**-31 with 1 only.
        boundaries, matches = two_hyp_sweep([0.5, -2.0, 3.0])
        assert boundaries == [-2.0, 0.5, 3.0]
        assert matches == [0, 1, 2, 3]
        boundaries, matches = two_hyp_sweep([3.0, 1.0, 1.0 + 2.0**-31, -2.0, 1.0 + 2.0**-29])
        assert boundaries == [-2.0, 1.0, 1.0 + 2.0**-29, 3.0]
        assert matches == [0, 1, 3, 4, 5]
        # A gap of exactly 2**-30 * |g| still groups; the reach is measured
        # from the group's first breakpoint, not from the previous one.
        assert two_hyp_sweep([1.0, 1.0 + 2.0**-30]) == ([1.0], [0, 2])
        gammas = [1.0, 1.0 + 3 * 2.0**-32, 1.0 + 3 * 2.0**-31]
        assert two_hyp_sweep(gammas) == ([gammas[0], gammas[2]], [0, 2, 3])

    def test_only_equal_breakpoints_group_at_zero(self):
        boundaries, matches = two_hyp_sweep([0.0, -0.0, 5e-324])
        assert boundaries == [0.0, 5e-324]
        assert matches == [0, 2, 3]


def entry_from_feature_pairs(sentence_id, pairs, tokens_per_hyp, refs):
    hyps = {
        sentence_id: [
            Hypothesis(sentence_id, k, tokens, (float(a), float(b)))
            for k, ((a, b), tokens) in enumerate(zip(pairs, tokens_per_hyp))
        ]
    }
    return hyps, {sentence_id: refs}


class TestLineSearch:
    def test_grid_probe_never_beats_the_sweep(self):
        for seed in range(40):
            _, packed, lines_per_sentence, w, d = ray_instance(seed)
            result = search(packed, w, d)
            ((boundaries, _),) = _sweep(_hulls([packed.project(w)], [packed.plan(enumerate(d))]), packed.stats)
            grid_best = ray_probe_min_error(lines_per_sentence, packed, boundaries, points=2001)
            assert grid_best >= result.error_at_star.error, f"seed {seed}"

    def test_never_worse_than_staying_put(self):
        for seed in range(40):
            _, packed, _, w, d = ray_instance(seed)
            result = search(packed, w, d)
            at_zero = selection_error(packed, first_argmax(packed, packed.project(w)))
            assert result.error_at_star.error <= at_zero.error, f"seed {seed}"

    def test_no_breakpoints_stays_at_zero(self):
        # One hypothesis per sentence: the score lines never cross.
        nbest = {0: [Hypothesis(0, 0, ("a", "b"), (1.0, 2.0))]}
        corpus = build_corpus(nbest, {0: [("a", "b")]})
        result = search(PackedCorpus.of(corpus), (1.0, 1.0), (0.5, -0.5))
        assert result.gamma_star == 0.0

    def test_bounded_optimum_returns_midpoint(self):
        # With w = (1, 0), d = (0, 1) the intercept is the first feature
        # and the slope the second, so score lines are set directly.
        good = ("g", "g", "g", "g")
        bad = ("z", "z", "z", "z")
        nbest, refs = entry_from_feature_pairs(
            0,
            [(3.0, -1.0), (0.0, 0.0), (-5.0, 1.0)],
            [bad, good, bad],
            [good],
        )
        corpus = build_corpus(nbest, refs)
        result = search(PackedCorpus.of(corpus), (1.0, 0.0), (0.0, 1.0))
        assert result.gamma_star == 4.0
        assert result.error_at_star.error == 0.0

    def test_left_unbounded_optimum_steps_inside(self):
        good = ("g", "g", "g", "g")
        bad = ("z", "z", "z", "z")
        nbest, refs = entry_from_feature_pairs(
            0, [(0.0, -1.0), (-2.0, 1.0)], [good, bad], [good]
        )
        corpus = build_corpus(nbest, refs)
        result = search(PackedCorpus.of(corpus), (1.0, 0.0), (0.0, 1.0))
        assert result.gamma_star == 0.0

    def test_right_unbounded_optimum_steps_inside(self):
        good = ("g", "g", "g", "g")
        bad = ("z", "z", "z", "z")
        nbest, refs = entry_from_feature_pairs(
            0, [(0.0, -1.0), (-2.0, 1.0)], [bad, good], [good]
        )
        corpus = build_corpus(nbest, refs)
        result = search(PackedCorpus.of(corpus), (1.0, 0.0), (0.0, 1.0))
        assert result.gamma_star == 2.0

    def test_tie_prefers_interval_nearest_zero(self):
        good = ("g", "g", "g", "g")
        bad = ("z", "z", "z", "z")
        # Sentence 0 is correct only on [3, 5], sentence 1 only on [-3, -1];
        # the two intervals tie on error, the nearer one to zero wins.
        n0, r0 = entry_from_feature_pairs(
            0, [(3.0, -1.0), (0.0, 0.0), (-5.0, 1.0)], [bad, good, bad], [good]
        )
        n1, r1 = entry_from_feature_pairs(
            1, [(-3.0, -1.0), (0.0, 0.0), (1.0, 1.0)], [bad, good, bad], [good]
        )
        corpus = build_corpus({**n0, **n1}, {**r0, **r1})
        result = search(PackedCorpus.of(corpus), (1.0, 0.0), (0.0, 1.0))
        assert result.gamma_star == -2.0

    def test_equal_distance_tie_prefers_leftmost_interval(self):
        # Two hypotheses with identical perfect tokens split the line at 0:
        # every interval has the same error and both touch zero.
        good = ("g", "g", "g", "g")
        nbest, refs = entry_from_feature_pairs(
            0, [(0.0, 1.0), (0.0, -1.0)], [good, good], [good]
        )
        corpus = build_corpus(nbest, refs)
        result = search(PackedCorpus.of(corpus), (1.0, 0.0), (0.0, 1.0))
        assert result.gamma_star == -1.0


def error_at_step(packed, w, d, result):
    stepped = tuple(wi + result.gamma_star * di for wi, di in zip(w, d))
    assert [x.hex() for x in result.weights] == [x.hex() for x in stepped]
    return packed.argmax_error(packed.project(stepped))


def test_a_negative_zero_weight_comes_back_as_zero():
    # Feature 0 is equal for both hypotheses, so the search along it
    # stays at gamma = 0; w + 0.0 * d still turns -0.0 into 0.0.
    good, bad = ("g",) * 4, ("b",) * 4
    nbest = {0: [Hypothesis(0, 0, bad, (1.0, 0.0)), Hypothesis(0, 1, good, (1.0, 1.0))]}
    packed = PackedCorpus.of(build_corpus(nbest, {0: [good]}))
    result = search(packed, (-0.0, 1.0), (1.0, 0.0))
    assert result.gamma_star == 0.0
    assert [x.hex() for x in result.weights] == [(0.0).hex(), (1.0).hex()]


def ulp_cluster_corpus(seed, sentences=12):
    # Under w = (1, 1, 0), d = (0, 0, 1) the lines (i/10, j/10, 0) and
    # ((i+j)/10, 0, 1) cross at fl(i/10 + j/10) - (i+j)/10: at gamma = 0
    # or a few ulps off it.  One of the two is the reference.
    rng = np.random.default_rng(seed)
    nbest, refs = {}, {}
    for s in range(sentences):
        i, j = rng.integers(1, 100, 2).tolist()
        tokens = [tuple(rng.choice(["p", "q", "r"], 4).tolist()) for _ in range(2)]
        features = [(i / 10, j / 10, 0.0), ((i + j) / 10, 0.0, 1.0)]
        nbest[s] = [Hypothesis(s, k, tokens[k], features[k]) for k in range(2)]
        refs[s] = [tokens[int(rng.integers(0, 2))]]
    return PackedCorpus.of(build_corpus(nbest, refs))


class TestScaleContract:
    """The reported error is the error at the stepped weights, whatever the
    scale of the direction."""

    def test_sub_ulp_interval_near_zero_is_not_chosen(self):
        # Breakpoints 0.1 + 0.2 - 0.3 = 2**-54 and 0.2 + 0.4 - 0.6 = 2**-53
        # bound the one interval where both sentences pick their reference,
        # but its midpoint rounds sentence 0's h1 score onto h0's.
        good, bad = ("g",) * 4, ("b",) * 4
        nbest = {
            0: [Hypothesis(0, 0, bad, (0.1, 0.2, 0.0)), Hypothesis(0, 1, good, (0.3, 0.0, 1.0))],
            1: [Hypothesis(1, 0, good, (0.2, 0.4, 0.0)), Hypothesis(1, 1, bad, (0.6, 0.0, 1.0))],
        }
        packed = PackedCorpus.of(build_corpus(nbest, {0: [good], 1: [good]}))
        w, d = (1.0, 1.0, 0.0), (0.0, 0.0, 1.0)
        ((boundaries, rows),) = _sweep(_hulls([packed.project(w)], [packed.plan(enumerate(d))]), packed.stats)
        errors = [row_bleu(row).error for row in rows.tolist()]
        assert boundaries == [2.0**-54, 2.0**-53] and errors[1] < min(errors[0], errors[2])
        result = search(packed, w, d)
        assert error_at_step(packed, w, d, result) == result.error_at_star
        assert result.error_at_star.error > errors[1]

    def test_ulp_clusters_at_zero_are_realized(self):
        w, d = (1.0, 1.0, 0.0), (0.0, 0.0, 1.0)
        for seed in range(200):
            packed = ulp_cluster_corpus(seed)
            result = search(packed, w, d)
            assert error_at_step(packed, w, d, result) == result.error_at_star, f"seed {seed}"

    @pytest.mark.parametrize("min_features", [1, 2])
    def test_error_is_scale_free_and_realized(self, min_features):
        for seed in range(200):
            _, packed, _, w, d = ray_instance(seed, min_features=min_features)
            found = []
            for k in (-30, 0, 25, 30, 35):
                d_k = tuple(x * 2.0**k for x in d)
                result = search(packed, w, d_k)
                at_step = error_at_step(packed, w, d_k, result)
                assert at_step == result.error_at_star, f"seed {seed}, scale 2**{k}"
                found.append(result.error_at_star)
            assert found == [found[0]] * len(found), f"seed {seed}"


def random_stats_rows(seed, count=4000):
    """Statistics rows up to 2^40 with every branch of row_bleu."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(count):
        top = 2 ** int(rng.integers(1, 41))
        total = rng.integers(1, top + 1, 4)
        match = rng.integers(1, total + 1)
        hyp_len = int(rng.integers(1, top + 1))
        ref_len = int(rng.integers(1, 2 * top + 1))
        kind = k % 6
        if kind == 1:
            match[rng.integers(0, 4)] = 0
        elif kind == 2:
            total[rng.integers(0, 4)] = 0
        elif kind == 3:
            hyp_len = 0
        elif kind == 4:
            ref_len = hyp_len + int(rng.integers(0, 3))  # hyp_len <= ref_len
        elif kind == 5:
            ref_len = max(0, hyp_len - int(rng.integers(1, 3)))  # hyp_len > ref_len
        rows.append([*match.tolist(), *total.tolist(), hyp_len, ref_len])
    return np.array(rows, dtype=np.int64)


def scalar_scan(packed, w, d):
    """Every interval scored by row_bleu; the minimum under line_search's
    documented tie rule: the least error, then the interval containing or
    nearest to gamma = 0, then the leftmost."""
    ((boundaries, rows),) = _sweep(_hulls([packed.project(w)], [packed.plan(enumerate(d))]), packed.stats)
    intervals = list(zip([-math.inf, *boundaries], [*boundaries, math.inf]))
    errors = [row_bleu(row) for row in rows.tolist()]

    def distance_to_zero(lower, upper):
        if lower <= 0.0 <= upper:
            return 0.0
        return lower if lower > 0.0 else -upper

    best = min(range(len(errors)), key=lambda i: (errors[i].error, distance_to_zero(*intervals[i]), i))
    return intervals[best], errors[best]


class TestRescoringBound:
    def test_estimate_is_within_half_the_bound_of_row_bleu(self):
        for seed in range(3):
            rows = random_stats_rows(seed)
            estimate = row_errors(rows)
            for row, value in zip(rows.tolist(), estimate.tolist()):
                exact = row_bleu(row).error
                if exact == 1.0:
                    assert value == 1.0, row
                assert abs(value - exact) <= RESCORE_BOUND / 2, row

    def test_line_search_equals_a_full_scalar_scan(self):
        for seed in range(200):
            _, packed, _, w, d = ray_instance(seed)
            result = search(packed, w, d)
            (lower, upper), error = scalar_scan(packed, w, d)
            zero = selection_error(packed, first_argmax(packed, packed.project(w)))
            if zero.error < error.error:  # the gamma = 0 guard
                assert result.gamma_star == 0.0, f"seed {seed}"
                assert result.error_at_star == zero, f"seed {seed}"
                stepped = tuple(wi + 0.0 * di for wi, di in zip(w, d))
                assert result.weights == stepped, f"seed {seed}"
            else:
                assert lower < result.gamma_star < upper, f"seed {seed}"
                assert result.error_at_star == error, f"seed {seed}"

    def test_any_estimate_within_half_the_bound_gives_the_same_result(self, monkeypatch):
        # Shift every estimate by up to just under half the bound, in
        # alternating directions: the result must not move.
        import rotamert.envelope as envelope

        exact = envelope.row_errors
        cases = [ray_instance(seed) for seed in range(60)]
        expected = [search(packed, w, d) for _, packed, _, w, d in cases]
        for sign in (1.0, -1.0):
            shift = 0.499 * RESCORE_BOUND * sign

            def shifted(rows):
                estimate = exact(rows)
                estimate[::2] += shift
                estimate[1::2] -= shift
                return estimate

            monkeypatch.setattr(envelope, "row_errors", shifted)
            for (_, packed, _, w, d), want in zip(cases, expected):
                assert search(packed, w, d) == want

    def test_exact_ties_resolve_by_distance_then_leftmost(self):
        # Each sentence is correct on one interval only: [1, 2], [-2, -1]
        # and [3, 4].  Those three intervals tie exactly on error; two of
        # them lie at distance 1 from gamma = 0, and the left one wins.
        good = ("g", "g", "g", "g")
        bad = ("z", "z", "z", "z")
        nbest, refs = {}, {}
        for s, (low, high) in enumerate([(1.0, 2.0), (-2.0, -1.0), (3.0, 4.0)]):
            n, r = entry_from_feature_pairs(
                s, [(low, -1.0), (0.0, 0.0), (-high, 1.0)], [bad, good, bad], [good]
            )
            nbest.update(n)
            refs.update(r)
        corpus = build_corpus(nbest, refs)
        packed = PackedCorpus.of(corpus)
        w, d = (1.0, 0.0), (0.0, 1.0)
        ((_, rows),) = _sweep(_hulls([packed.project(w)], [packed.plan(enumerate(d))]), packed.stats)
        errors = [row_bleu(row).error for row in rows.tolist()]
        assert errors.count(min(errors)) == 3
        result = search(packed, w, d)
        assert result.gamma_star == -1.5
        assert scalar_scan(packed, w, d) == ((-2.0, -1.0), result.error_at_star)


class TestIntervalProbesHelper:
    def test_probe_count_and_placement(self):
        assert interval_probes([]) == [0.0]
        probes = interval_probes([-1.0, 2.0])
        assert probes == [-2.0, 0.5, 3.0]
