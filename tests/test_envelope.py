import numpy as np
import pytest

from rotamert.bleu import hypothesis_stats, selection_error
from rotamert.corpus import Hypothesis, build_corpus
from rotamert.envelope import (
    PackedCorpus,
    ScoreLine,
    SentenceEnvelope,
    dot,
    line_search,
    project_lines,
    sweep_intervals,
    upper_envelope,
)
from rotamert.errors import DimensionMismatch, InputError

from instances import random_corpus, random_lines, ray_instance
from oracles import (
    envelope_by_enumeration,
    interval_probes,
    ray_probe_min_error,
    reselect_interval_stats,
)


class TestProjectLines:
    def test_intercept_and_slope_are_dot_products(self):
        corpus, rng = random_corpus(5)
        entry = corpus.entries[0]
        w = tuple(float(x) for x in rng.normal(size=corpus.feature_dim))
        d = tuple(float(x) for x in rng.normal(size=corpus.feature_dim))
        for i, line in enumerate(project_lines(entry, w, d)):
            assert line.intercept == dot(w, entry.hypotheses[i].features)
            assert line.slope == dot(d, entry.hypotheses[i].features)
            assert line.hyp_index == i

    def test_dimension_checked(self):
        corpus, _ = random_corpus(5)
        bad = (0.0,) * (corpus.feature_dim + 1)
        with pytest.raises(DimensionMismatch):
            project_lines(corpus.entries[0], bad, bad)


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
        corpus, w, d = self.mixed_magnitude_corpus(7, sentences=3, hyps=60)
        for entry in corpus.entries:
            for i, line in enumerate(project_lines(entry, w, d)):
                assert line.intercept.hex() == dot(w, entry.hypotheses[i].features).hex()
                assert line.slope.hex() == dot(d, entry.hypotheses[i].features).hex()

    def test_packed_selection_keeps_lowest_rank_on_ties(self):
        nbest = {0: [Hypothesis(0, k, ("t", str(k)), (1.0, 0.0)) for k in range(3)]}
        nbest[0].append(Hypothesis(0, 3, ("u",), (2.0, -1.0)))
        corpus = build_corpus(nbest, {0: [("t",)]})
        packed = PackedCorpus.of(corpus)
        assert packed.first_argmax(packed.project((1.0, 1.0))).tolist() == [0]
        assert packed.first_argmax(packed.project((-1.0, -2.0))).tolist() == [3]

    def test_overflowing_scores_are_rejected(self):
        nbest = {0: [Hypothesis(0, 0, ("a",), (1e300, 1.0)), Hypothesis(0, 1, ("b",), (-1e300, 1.0))]}
        corpus = build_corpus(nbest, {0: [("a",)]})
        cache = hypothesis_stats(corpus)
        with pytest.raises(InputError):
            line_search(corpus, cache, (1e10, 1.0), (0.0, 1.0))
        with pytest.raises(InputError):
            line_search(corpus, cache, (1.0, 1.0), (float("nan"), 1.0))


class TestUpperEnvelope:
    def test_single_line(self):
        env = upper_envelope([ScoreLine(1.0, 2.0, 0)])
        assert env.breakpoints == ()
        assert env.segments == (0,)

    def test_parallel_lines_keep_highest_intercept(self):
        env = upper_envelope(
            [ScoreLine(1.0, 0.5, 0), ScoreLine(3.0, 0.5, 1), ScoreLine(2.0, 0.5, 2)]
        )
        assert env.segments == (1,)
        assert env.breakpoints == ()

    def test_identical_lines_keep_lowest_index(self):
        env = upper_envelope(
            [ScoreLine(1.0, 0.5, 2), ScoreLine(1.0, 0.5, 0), ScoreLine(1.0, 0.5, 1)]
        )
        assert env.segments == (0,)

    def test_dominated_middle_line_is_dropped(self):
        # y = -x and y = x meet at 0; y = -1 stays below both everywhere.
        lines = [
            ScoreLine(0.0, -1.0, 0),
            ScoreLine(-1.0, 0.0, 1),
            ScoreLine(0.0, 1.0, 2),
        ]
        env = upper_envelope(lines)
        assert env.segments == (0, 2)
        assert env.breakpoints == (0.0,)

    def test_three_way_meeting_point(self):
        # All three lines pass through (0, 1); the middle one survives
        # nowhere since it never strictly exceeds the other two.
        lines = [
            ScoreLine(1.0, -1.0, 0),
            ScoreLine(1.0, 0.0, 1),
            ScoreLine(1.0, 1.0, 2),
        ]
        env = upper_envelope(lines)
        assert env.segments == (0, 2)
        assert env.breakpoints == (0.0,)

    def test_matches_enumeration_on_random_lines(self):
        for seed in range(300):
            lines = random_lines(seed)
            env = upper_envelope(lines)
            breaks, segments = envelope_by_enumeration(lines)
            assert env.segments == segments, f"seed {seed}"
            assert env.breakpoints == breaks, f"seed {seed}"

    def test_breakpoints_strictly_increase(self):
        for seed in range(100, 150):
            env = upper_envelope(random_lines(seed))
            assert all(
                a < b for a, b in zip(env.breakpoints, env.breakpoints[1:])
            )
            assert len(env.segments) == len(env.breakpoints) + 1


class TestSweepIntervals:
    def test_interval_stats_match_from_scratch_reselection(self):
        for seed in range(60):
            corpus, cache, lines_per_sentence, _, _ = ray_instance(seed)
            envelopes = [upper_envelope(lines) for lines in lines_per_sentence]
            sweep = sweep_intervals(corpus, envelopes, cache)
            expected = reselect_interval_stats(
                lines_per_sentence, cache, list(sweep.boundaries)
            )
            assert list(sweep.interval_stats) == expected, f"seed {seed}"

    def test_interval_errors_come_from_interval_stats(self):
        corpus, cache, lines_per_sentence, _, _ = ray_instance(1)
        envelopes = [upper_envelope(lines) for lines in lines_per_sentence]
        sweep = sweep_intervals(corpus, envelopes, cache)
        assert len(sweep.interval_error) == len(sweep.boundaries) + 1
        from rotamert.bleu import corpus_bleu

        for stats, err in zip(sweep.interval_stats, sweep.interval_error):
            assert corpus_bleu(stats) == err

    def test_shape_mismatch_rejected(self):
        corpus, cache, lines_per_sentence, _, _ = ray_instance(2)
        envelopes = [upper_envelope(lines) for lines in lines_per_sentence]
        with pytest.raises(DimensionMismatch):
            sweep_intervals(corpus, envelopes[:-1], cache)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_breakpoint_rejected(self, gamma):
        nbest = {0: [Hypothesis(0, 0, ("a",), (0.0,)), Hypothesis(0, 1, ("b",), (1.0,))]}
        corpus = build_corpus(nbest, {0: [("a",)]})
        envelope = SentenceEnvelope((gamma,), (0, 1))
        with pytest.raises(InputError):
            sweep_intervals(corpus, [envelope], hypothesis_stats(corpus))

    def test_coalesced_boundaries_share_one_interval(self):
        nbest = {
            s: [Hypothesis(s, 0, ("a",), (0.0,)), Hypothesis(s, 1, ("b",), (1.0,))]
            for s in range(3)
        }
        corpus = build_corpus(nbest, {s: [("a",)] for s in range(3)})
        cache = hypothesis_stats(corpus)
        envelopes = [
            SentenceEnvelope((g,), (0, 1)) for g in (1.0, 1.0 + 5e-10, 2.0)
        ]
        sweep = sweep_intervals(corpus, envelopes, cache)
        assert sweep.boundaries == (1.0, 2.0)
        assert [st.hyp_len for st in sweep.interval_stats] == [3, 3, 3]
        assert [st.match_n[0] for st in sweep.interval_stats] == [3, 1, 0]


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
            corpus, cache, lines_per_sentence, w, d = ray_instance(seed)
            result = line_search(corpus, cache, w, d)
            envelopes = [upper_envelope(lines) for lines in lines_per_sentence]
            sweep = sweep_intervals(corpus, envelopes, cache)
            grid_best = ray_probe_min_error(
                lines_per_sentence, cache, list(sweep.boundaries), points=2001
            )
            assert grid_best >= result.error_at_star.error, f"seed {seed}"

    def test_never_worse_than_staying_put(self):
        from rotamert.descent import select_hypotheses

        for seed in range(40):
            corpus, cache, _, w, d = ray_instance(seed)
            result = line_search(corpus, cache, w, d)
            at_zero = selection_error(cache, select_hypotheses(corpus, w))
            assert result.error_at_star.error <= at_zero.error, f"seed {seed}"

    def test_no_breakpoints_stays_at_zero(self):
        # One hypothesis per sentence: the score lines never cross.
        nbest = {0: [Hypothesis(0, 0, ("a", "b"), (1.0, 2.0))]}
        corpus = build_corpus(nbest, {0: [("a", "b")]})
        cache = hypothesis_stats(corpus)
        result = line_search(corpus, cache, (1.0, 1.0), (0.5, -0.5))
        assert result.gamma_star == 0.0
        assert result.chosen_interval == (float("-inf"), float("inf"))

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
        cache = hypothesis_stats(corpus)
        result = line_search(corpus, cache, (1.0, 0.0), (0.0, 1.0))
        assert result.chosen_interval == (3.0, 5.0)
        assert result.gamma_star == 4.0
        assert result.error_at_star.error == 0.0

    def test_left_unbounded_optimum_steps_inside(self):
        good = ("g", "g", "g", "g")
        bad = ("z", "z", "z", "z")
        nbest, refs = entry_from_feature_pairs(
            0, [(0.0, -1.0), (-2.0, 1.0)], [good, bad], [good]
        )
        corpus = build_corpus(nbest, refs)
        cache = hypothesis_stats(corpus)
        result = line_search(corpus, cache, (1.0, 0.0), (0.0, 1.0))
        assert result.chosen_interval == (float("-inf"), 1.0)
        assert result.gamma_star == 0.0

    def test_right_unbounded_optimum_steps_inside(self):
        good = ("g", "g", "g", "g")
        bad = ("z", "z", "z", "z")
        nbest, refs = entry_from_feature_pairs(
            0, [(0.0, -1.0), (-2.0, 1.0)], [bad, good], [good]
        )
        corpus = build_corpus(nbest, refs)
        cache = hypothesis_stats(corpus)
        result = line_search(corpus, cache, (1.0, 0.0), (0.0, 1.0))
        assert result.chosen_interval == (1.0, float("inf"))
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
        cache = hypothesis_stats(corpus)
        result = line_search(corpus, cache, (1.0, 0.0), (0.0, 1.0))
        assert result.chosen_interval == (-3.0, -1.0)
        assert result.gamma_star == -2.0

    def test_equal_distance_tie_prefers_leftmost_interval(self):
        # Two hypotheses with identical perfect tokens split the line at 0:
        # every interval has the same error and both touch zero.
        good = ("g", "g", "g", "g")
        nbest, refs = entry_from_feature_pairs(
            0, [(0.0, 1.0), (0.0, -1.0)], [good, good], [good]
        )
        corpus = build_corpus(nbest, refs)
        cache = hypothesis_stats(corpus)
        result = line_search(corpus, cache, (1.0, 0.0), (0.0, 1.0))
        assert result.chosen_interval == (float("-inf"), 0.0)
        assert result.gamma_star == -1.0

    def test_parallel_jobs_change_nothing(self):
        for seed in range(10):
            corpus, cache, _, w, d = ray_instance(seed)
            serial = line_search(corpus, cache, w, d)
            threaded = line_search(corpus, cache, w, d, jobs=4)
            assert serial == threaded


class TestIntervalProbesHelper:
    def test_probe_count_and_placement(self):
        assert interval_probes([]) == [0.0]
        probes = interval_probes([-1.0, 2.0])
        assert probes == [-2.0, 0.5, 3.0]
