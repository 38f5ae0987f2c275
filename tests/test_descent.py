import pytest

from rotamert.corpus import Hypothesis, build_corpus
import rotamert.descent
from rotamert.descent import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITER,
    SWEEP_MODES,
    KcdConfig,
    basis_directions,
    kcd_optimize,
    uniform_weights,
)
from rotamert.envelope import LineSearchResult, PackedCorpus, line_search
from rotamert.errors import ConfigError, DegenerateDirectionWarning, DimensionMismatch
from rotamert.rotation import CoordinateSystem

from instances import random_corpus
from oracles import first_argmax, selection_error


def select(corpus, w):
    packed = PackedCorpus.of(corpus)
    return first_argmax(packed, packed.project(w))


class TestSelection:
    def test_argmax_by_weighted_score(self):
        nbest = {
            0: [
                Hypothesis(0, 0, ("a",), (1.0, 0.0)),
                Hypothesis(0, 1, ("b",), (0.0, 2.0)),
            ]
        }
        corpus = build_corpus(nbest, {0: [("a",)]})
        assert select(corpus, (1.0, 0.0)) == [0]
        assert select(corpus, (0.0, 1.0)) == [1]

    def test_score_tie_keeps_lowest_rank(self):
        nbest = {
            0: [
                Hypothesis(0, 0, ("a",), (1.0,)),
                Hypothesis(0, 1, ("b",), (1.0,)),
            ]
        }
        corpus = build_corpus(nbest, {0: [("a",)]})
        assert select(corpus, (3.0,)) == [0]

    def test_weight_length_checked(self):
        corpus, _ = random_corpus(0)
        with pytest.raises(DimensionMismatch):
            select(corpus, (1.0,) * (corpus.feature_dim + 1))


class TestHelpers:
    def test_uniform_weights(self):
        assert uniform_weights(4) == (0.25, 0.25, 0.25, 0.25)

    def test_basis_directions(self):
        assert basis_directions(3) == (
            (1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0),
        )


class TestConfig:
    def test_defaults(self):
        cfg = KcdConfig()
        assert cfg.epsilon == DEFAULT_EPSILON == 0.001
        assert cfg.max_iter == DEFAULT_MAX_ITER == 25
        assert cfg.sweep_mode == SWEEP_MODES[0] == "sequential"

    def test_validation(self):
        with pytest.raises(ConfigError):
            KcdConfig(epsilon=0.0)
        with pytest.raises(ConfigError, match="epsilon"):
            KcdConfig(epsilon=float("inf"))
        with pytest.raises(ConfigError):
            KcdConfig(max_iter=0)
        with pytest.raises(ConfigError):
            KcdConfig(sweep_mode="zigzag")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_initial_weights_rejected(self, bad):
        corpus, _ = random_corpus(4, min_features=2)
        init = (bad,) + (1.0,) * (corpus.feature_dim - 1)
        with pytest.raises(ConfigError):
            kcd_optimize(corpus, init)


class TestDescentLoop:
    def test_trace_errors_never_increase(self):
        for seed in range(25):
            corpus, _ = random_corpus(seed)
            _, trace = kcd_optimize(corpus)
            errors = [step.error.error for step in trace.steps]
            assert all(a >= b for a, b in zip(errors, errors[1:])), f"seed {seed}"

    def test_first_step_never_worse_than_start(self):
        for seed in range(25):
            corpus, _ = random_corpus(seed)
            w0 = uniform_weights(corpus.feature_dim)
            start = selection_error(PackedCorpus.of(corpus), select(corpus, w0))
            _, trace = kcd_optimize(corpus, w0)
            assert trace.steps[0].error.error <= start.error, f"seed {seed}"

    def test_iteration_cap_respected(self):
        for seed in range(25):
            corpus, _ = random_corpus(seed)
            _, trace = kcd_optimize(corpus)
            assert 1 <= trace.iterations <= DEFAULT_MAX_ITER
            assert max(s.iteration for s in trace.steps) == trace.iterations

    def test_loose_tolerance_stops_after_two_iterations(self):
        # Consecutive sweep errors are compared starting from the second
        # iteration, so a tolerance as wide as the whole error range
        # stops the loop there no matter the corpus.
        for seed in (0, 1, 2):
            corpus, _ = random_corpus(seed)
            _, trace = kcd_optimize(corpus, config=KcdConfig(epsilon=1.0))
            assert trace.iterations == 2, f"seed {seed}"

    def test_max_iter_one_runs_one_sweep(self):
        corpus, _ = random_corpus(4)
        _, trace = kcd_optimize(corpus, config=KcdConfig(max_iter=1))
        assert trace.iterations == 1
        assert {s.iteration for s in trace.steps} == {1}

    def test_sequential_sweep_touches_every_dimension(self):
        corpus, _ = random_corpus(6)
        _, trace = kcd_optimize(corpus, config=KcdConfig(max_iter=1))
        dims = [s.dimension for s in trace.steps]
        assert dims == list(range(corpus.feature_dim))

    def test_best_direction_applies_one_step_per_iteration(self):
        for seed in range(10):
            corpus, _ = random_corpus(seed)
            _, trace = kcd_optimize(
                corpus, config=KcdConfig(sweep_mode="best-direction")
            )
            per_iter = [s.iteration for s in trace.steps]
            assert per_iter == sorted(per_iter)
            assert len(set(per_iter)) == len(per_iter)
            errors = [s.error.error for s in trace.steps]
            assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_returned_weights_match_trace(self):
        corpus, _ = random_corpus(8)
        weights, trace = kcd_optimize(corpus)
        assert weights == trace.final_weights

    def test_weights_start_uniform_by_default(self):
        corpus, _ = random_corpus(9)
        explicit, _ = kcd_optimize(corpus, uniform_weights(corpus.feature_dim))
        default, _ = kcd_optimize(corpus)
        assert explicit == default

    def test_init_weight_length_checked(self):
        corpus, _ = random_corpus(10)
        with pytest.raises(DimensionMismatch):
            kcd_optimize(corpus, (1.0,) * (corpus.feature_dim + 1))

    def test_packed_input_changes_nothing(self):
        for seed in range(8):
            corpus, _ = random_corpus(seed)
            serial = kcd_optimize(corpus)
            w, trace = kcd_optimize(PackedCorpus.of(corpus))
            assert w == serial[0], f"seed {seed}"
            assert trace.to_tsv() == serial[1].to_tsv(), f"seed {seed}"


class TestDirections:
    def test_zero_direction_warns_and_is_skipped(self):
        nbest = {
            0: [
                Hypothesis(0, 0, ("a",), (1.0, 0.5)),
                Hypothesis(0, 1, ("b",), (0.0, 2.0)),
            ]
        }
        corpus = build_corpus(nbest, {0: [("a",)]})
        dim = corpus.feature_dim
        directions = list(basis_directions(dim))
        directions[0] = (0.0,) * dim
        system = CoordinateSystem(tuple(directions))
        with pytest.warns(DegenerateDirectionWarning):
            _, trace = kcd_optimize(corpus, config=KcdConfig(max_iter=1), system=system)
        assert 0 not in {s.dimension for s in trace.steps}

    def test_direction_count_checked(self):
        corpus, _ = random_corpus(15)
        dim = corpus.feature_dim
        system = CoordinateSystem(basis_directions(dim + 1))
        with pytest.raises(DimensionMismatch):
            kcd_optimize(corpus, system=system)

    def test_direction_length_checked(self):
        corpus = build_corpus({0: [Hypothesis(0, 0, ("a",), (1.0, 0.5))]}, {0: [("a",)]})
        system = CoordinateSystem(((1.0,), (0.0, 1.0)))
        with pytest.raises(DimensionMismatch, match="^direction 0 has length 1, expected 2$"):
            kcd_optimize(corpus, system=system)


class TestTraceSerialization:
    def test_tsv_round_trips_gamma_and_error_exactly(self):
        corpus, _ = random_corpus(16)
        _, trace = kcd_optimize(corpus)
        rows = trace.to_tsv().splitlines()
        assert rows[0] == "iter\tdim\tgamma\terror\tbleu"
        assert len(rows) == len(trace.steps) + 1
        for step, row in zip(trace.steps, rows[1:]):
            it, dim, gamma, error, bleu = row.split("\t")
            assert int(it) == step.iteration
            assert int(dim) == step.dimension
            assert float(gamma) == step.gamma
            assert float(error) == step.error.error
            assert bleu == f"{step.error.bleu * 100.0:.2f}"


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_a_search_from_the_previous_result_equals_one_from_its_weights(monkeypatch, mode):
    # Each search of a descent starts from the previous result (the first
    # from the zero step at the initial weights) and reuses its scores and
    # error; starting from the bare weights must give the same result.
    starts = []

    def checked(packed, start, d):
        assert isinstance(start, LineSearchResult)
        assert start.scores.tobytes() == packed.project(start.weights).tobytes()
        result = line_search(packed, start, d)
        assert repr(result) == repr(line_search(packed, start.weights, d))
        assert result.scores.tobytes() == packed.project(result.weights).tobytes()
        starts.append(start)
        return result

    monkeypatch.setattr(rotamert.descent, "line_search", checked)
    for seed in range(40):
        corpus, _ = random_corpus(seed)
        kcd_optimize(corpus, config=KcdConfig(max_iter=3, sweep_mode=mode))
    assert len(starts) > 100
    assert any(start.gamma_star != 0.0 for start in starts)


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_final_error_is_the_error_at_the_final_weights(mode):
    for seed in range(30):
        corpus, rng = random_corpus(seed)
        packed = PackedCorpus.of(corpus)
        start = tuple(rng.normal(0.0, 1.0, corpus.feature_dim).tolist())
        weights, trace = kcd_optimize(packed, start, config=KcdConfig(sweep_mode=mode))
        assert trace.final_error == packed.argmax_error(packed.project(weights)), f"seed {seed}"
    # With every direction zero the descent takes no step and ends where it started.
    zero = CoordinateSystem(((0.0,) * corpus.feature_dim,) * corpus.feature_dim)
    with pytest.warns(DegenerateDirectionWarning):
        weights, trace = kcd_optimize(packed, start, zero, KcdConfig(sweep_mode=mode))
    assert trace.steps == () and weights == start
    assert trace.final_error == packed.argmax_error(packed.project(start))
