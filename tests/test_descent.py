import itertools
import re

import numpy as np
import pytest

from rotamert.corpus import Hypothesis, build_corpus
import rotamert.descent
from rotamert.descent import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITER,
    SWEEP_MODES,
    CoordinateSystem,
    KcdConfig,
    Rotation,
    kcd_lockstep,
    kcd_optimize,
    uniform_weights,
)
from rotamert.envelope import LineSearchResult, PackedCorpus, line_search
from rotamert.errors import ConfigError, DimensionMismatch
from rotamert.synthetic import SynthSpec, generate

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_iter", 2.5, "max_iter must be an integer, got 2.5"),
            ("max_iter", "3", "max_iter must be an integer, got '3'"),
            ("max_iter", True, "max_iter must be an integer, got True"),
            ("max_iter", None, "max_iter must be an integer, got None"),
            ("epsilon", "0.1", "epsilon must be a real number, got '0.1'"),
            ("epsilon", True, "epsilon must be a real number, got True"),
            ("epsilon", 1j, "epsilon must be a real number, got 1j"),
        ],
    )
    def test_fields_are_read_one_strict_way(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            KcdConfig(**{field: value})
        # Integers and numpy numbers are accepted and stored as given.
        assert KcdConfig(epsilon=1, max_iter=np.int64(2)).max_iter == np.int64(2)

    @pytest.mark.parametrize(
        "args, message",
        [
            (dict(config="x"), "config must be a KcdConfig, got str"),
            (dict(config=5), "config must be a KcdConfig, got int"),
            (dict(system=5), "system must be a CoordinateSystem, got int"),
        ],
    )
    def test_kcd_optimize_refuses_what_it_cannot_use(self, args, message):
        corpus = build_corpus({0: [Hypothesis(0, 0, ("a",), (1.0, 0.5))]}, {0: [("a",)]})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            kcd_optimize(PackedCorpus.of(corpus), **args)

    @pytest.mark.parametrize("corpus", [5, None, "corpus"])
    def test_the_corpus_is_checked_before_its_dimension_is_read(self, corpus):
        # The descent takes a pack only, and only a TuningCorpus is packed.
        tuning, _ = random_corpus(0)
        for bad in (corpus, tuning):
            with pytest.raises(ConfigError, match=f"^corpus must be a PackedCorpus, got {type(bad).__name__}$"):
                kcd_optimize(bad)
        packed = PackedCorpus.of(tuning)
        for bad in (corpus, packed):
            with pytest.raises(ConfigError, match=f"^corpus must be a TuningCorpus, got {type(bad).__name__}$"):
                PackedCorpus.of(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_initial_weights_rejected(self, bad):
        corpus, _ = random_corpus(4, min_features=2)
        init = (bad,) + (1.0,) * (corpus.feature_dim - 1)
        with pytest.raises(ConfigError):
            kcd_optimize(PackedCorpus.of(corpus), init)

    @pytest.mark.parametrize("init", [["1", "2"], (1.0, True), (None, 1.0), (1.0, 1j)])
    def test_initial_weights_must_be_real_numbers(self, init):
        # Read as rotation alphas are: no coercion, and a bool is no number.
        corpus = build_corpus({0: [Hypothesis(0, 0, ("a",), (1.0, 0.5))]}, {0: [("a",)]})
        message = "initial weights must be real numbers, got " + " ".join(map(repr, init))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            kcd_optimize(PackedCorpus.of(corpus), init)


    def test_initial_weights_must_be_iterable(self):
        corpus = build_corpus({0: [Hypothesis(0, 0, ("a",), (1.0, 0.5))]}, {0: [("a",)]})
        with pytest.raises(ConfigError, match="^initial weights must be an iterable of real numbers, got 5$"):
            kcd_optimize(PackedCorpus.of(corpus), 5)


class TestDescentLoop:
    def test_trace_errors_never_increase(self):
        for seed in range(25):
            corpus, _ = random_corpus(seed)
            _, trace = kcd_optimize(PackedCorpus.of(corpus))
            errors = [step.error.error for step in trace.steps]
            assert all(a >= b for a, b in zip(errors, errors[1:])), f"seed {seed}"

    def test_first_step_never_worse_than_start(self):
        for seed in range(25):
            corpus, _ = random_corpus(seed)
            w0 = uniform_weights(corpus.feature_dim)
            start = selection_error(PackedCorpus.of(corpus), select(corpus, w0))
            _, trace = kcd_optimize(PackedCorpus.of(corpus), w0)
            assert trace.steps[0].error.error <= start.error, f"seed {seed}"

    def test_iteration_cap_respected(self):
        for seed in range(25):
            corpus, _ = random_corpus(seed)
            _, trace = kcd_optimize(PackedCorpus.of(corpus))
            assert 1 <= trace.iterations <= DEFAULT_MAX_ITER
            assert max(s.iteration for s in trace.steps) == trace.iterations

    def test_loose_tolerance_stops_after_two_iterations(self):
        # Consecutive sweep errors are compared starting from the second
        # iteration, so a tolerance as wide as the whole error range
        # stops the loop there no matter the corpus.
        for seed in (0, 1, 2):
            corpus, _ = random_corpus(seed)
            _, trace = kcd_optimize(PackedCorpus.of(corpus), config=KcdConfig(epsilon=1.0))
            assert (trace.iterations, trace.stopped) == (2, "epsilon"), f"seed {seed}"
            # Met at the cap, the tolerance is the reason given.
            _, trace = kcd_optimize(PackedCorpus.of(corpus), config=KcdConfig(epsilon=1.0, max_iter=2))
            assert (trace.iterations, trace.stopped) == (2, "epsilon"), f"seed {seed}"

    def test_max_iter_one_runs_one_sweep(self):
        corpus, _ = random_corpus(4)
        _, trace = kcd_optimize(PackedCorpus.of(corpus), config=KcdConfig(max_iter=1))
        assert (trace.iterations, trace.stopped) == (1, "max_iter")
        assert {s.iteration for s in trace.steps} == {1}

    def test_sequential_sweep_touches_every_dimension(self):
        corpus, _ = random_corpus(6)
        _, trace = kcd_optimize(PackedCorpus.of(corpus), config=KcdConfig(max_iter=1))
        dims = [s.dimension for s in trace.steps]
        assert dims == list(range(corpus.feature_dim))

    def test_best_direction_applies_one_step_per_iteration(self):
        for seed in range(10):
            corpus, _ = random_corpus(seed)
            _, trace = kcd_optimize(
                PackedCorpus.of(corpus), config=KcdConfig(sweep_mode="best-direction")
            )
            per_iter = [s.iteration for s in trace.steps]
            assert per_iter == sorted(per_iter)
            assert len(set(per_iter)) == len(per_iter)
            errors = [s.error.error for s in trace.steps]
            assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_returned_weights_match_trace(self):
        corpus, _ = random_corpus(8)
        weights, trace = kcd_optimize(PackedCorpus.of(corpus))
        assert weights == trace.final_weights

    def test_weights_start_uniform_by_default(self):
        corpus, _ = random_corpus(9)
        explicit, _ = kcd_optimize(PackedCorpus.of(corpus), uniform_weights(corpus.feature_dim))
        default, _ = kcd_optimize(PackedCorpus.of(corpus))
        assert explicit == default

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_lockstep_descents_equal_lone_ones(self, mode):
        # Systems stop at different iterations and leave the batch; each
        # run equals its lone descent, trace and stop reason included.
        stopped = set()
        for seed, max_iter in itertools.product(range(4), (2, 4)):
            config = KcdConfig(epsilon=1e-4, max_iter=max_iter, sweep_mode=mode)
            packed = PackedCorpus.of(generate(SynthSpec(12, 8, 3, correlated_pairs=((0, 1, 0.9),), seed=seed))[0])
            systems = [CoordinateSystem(3)] * 2
            systems += [CoordinateSystem(3, (Rotation(0, 1, alpha),)) for alpha in (-1.0, -0.3, 0.0, 0.7)]
            runs = kcd_lockstep(packed, systems, None, config)
            alone = [kcd_optimize(packed, None, system, config) for system in systems]
            assert repr(runs) == repr(alone), f"seed {seed}, max_iter {max_iter}"
            stopped |= {(trace.iterations, trace.stopped) for _, trace in runs}
        assert stopped == {(2, "epsilon"), (3, "epsilon"), (2, "max_iter")}
        assert kcd_lockstep(packed, [], None, config) == []

    def test_init_weight_length_checked(self):
        corpus, _ = random_corpus(10)
        with pytest.raises(DimensionMismatch):
            kcd_optimize(PackedCorpus.of(corpus), (1.0,) * (corpus.feature_dim + 1))


class TestDirections:
    def test_direction_count_checked(self):
        corpus, _ = random_corpus(15)
        dim = corpus.feature_dim
        with pytest.raises(
            DimensionMismatch, match=f"^coordinate system of {dim + 1} dimensions for {dim} features$"
        ):
            kcd_optimize(PackedCorpus.of(corpus), system=CoordinateSystem(dim + 1))


class TestTraceSerialization:
    def test_tsv_round_trips_gamma_and_error_exactly(self):
        corpus, _ = random_corpus(16)
        _, trace = kcd_optimize(PackedCorpus.of(corpus))
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
    seen = []

    def checked(packed, starts, plans):
        for start in starts:
            assert isinstance(start, LineSearchResult)
            assert start.scores.tobytes() == packed.project(start.weights).tobytes()
        results = line_search(packed, starts, plans)
        alone = line_search(packed, [LineSearchResult.at(packed, start.weights) for start in starts], plans)
        assert repr(results) == repr(alone)
        for result in results:
            assert result.scores.tobytes() == packed.project(result.weights).tobytes()
        seen.extend(starts)
        return results

    monkeypatch.setattr(rotamert.descent, "line_search", checked)
    for seed in range(40):
        corpus, _ = random_corpus(seed)
        kcd_optimize(PackedCorpus.of(corpus), config=KcdConfig(max_iter=3, sweep_mode=mode))
    assert len(seen) > 100
    assert any(start.gamma_star != 0.0 for start in seen)


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_final_error_is_the_error_at_the_final_weights(mode):
    for seed in range(30):
        corpus, rng = random_corpus(seed)
        packed = PackedCorpus.of(corpus)
        start = tuple(rng.normal(0.0, 1.0, corpus.feature_dim).tolist())
        weights, trace = kcd_optimize(packed, start, config=KcdConfig(sweep_mode=mode))
        assert trace.final_error == packed.argmax_error(packed.project(weights)), f"seed {seed}"
