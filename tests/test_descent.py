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
from rotamert.errors import ConfigError, DimensionMismatch, InputError
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
            runs = list(kcd_lockstep(packed, systems, None, config))
            alone = [kcd_optimize(packed, None, system, config) for system in systems]
            assert repr(runs) == repr(alone), f"seed {seed}, max_iter {max_iter}"
            stopped |= {(trace.iterations, trace.stopped) for _, trace in runs}
        assert stopped == {(2, "epsilon"), (3, "epsilon"), (2, "max_iter")}
        assert list(kcd_lockstep(packed, [], None, config)) == []

    def test_init_weight_length_checked(self):
        corpus, _ = random_corpus(10)
        with pytest.raises(DimensionMismatch):
            kcd_optimize(PackedCorpus.of(corpus), (1.0,) * (corpus.feature_dim + 1))


def failing_axes_pack(step_axis, crossing_axis):
    """A pack on which, from (1, 0, 0), the search along axis ``step_axis``
    fails its step check and the one along ``crossing_axis`` meets a
    crossing that overflows; the search along axis 0 passes."""

    def features(base, step=0.0, crossing=0.0):
        values = [base, 0.0, 0.0]
        values[step_axis], values[crossing_axis] = step, crossing
        return tuple(values)

    good, bad = ("a", "b", "c", "d"), ("x", "y", "z", "w")
    nbest = {
        # Along the step axis the better line (the first) overtakes at gamma
        # = 17; the step to 18 scores it 1e307 * 18, which overflows.
        0: [Hypothesis(0, 0, good, features(0.0, step=1e307)), Hypothesis(0, 1, bad, features(1.7e308))],
        # Along the crossing axis these cross at 1e10 / 1e-300 = inf.
        1: [Hypothesis(1, 0, bad, features(1e10)), Hypothesis(1, 1, bad, features(0.0, crossing=1e-300))],
    }
    return PackedCorpus.of(build_corpus(nbest, {0: [good], 1: [good]}))


STEP_ERROR = "feature values times weights overflow: a hypothesis score is not finite"
CROSSING_ERROR = "a breakpoint of the search ray is not finite"


class TestLockstepBlocks:
    """kcd_lockstep alone sizes the line_search calls and replays a failing block serially."""

    @staticmethod
    def setting():
        packed = PackedCorpus.of(generate(SynthSpec(12, 8, 3, correlated_pairs=((0, 1, 0.9),), seed=1))[0])
        tilted = [CoordinateSystem(3, (Rotation(0, 1, alpha),)) for alpha in (-0.6, 0.3, 0.8, -0.2)]
        return packed, [CoordinateSystem(3), *tilted]

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_a_search_call_holds_at_most_one_block(self, mode, monkeypatch):
        # Blocks of size = max(1, BLOCK_ROWS // rows) descents, and at most
        # size searches per call, whatever the sweep mode.
        packed, systems = self.setting()
        rows, per_step = len(packed.stats), 1 if mode == "sequential" else packed.feature_dim
        config = KcdConfig(epsilon=1e-4, max_iter=4, sweep_mode=mode)
        calls = []

        def counted(packed, starts, plans):
            calls.append(len(plans))
            return line_search(packed, starts, plans)

        monkeypatch.setattr(rotamert.descent, "line_search", counted)
        default = rotamert.descent.BLOCK_ROWS
        monkeypatch.setattr(rotamert.descent, "BLOCK_ROWS", 1)
        alone = [kcd_optimize(packed, None, system, config) for system in systems]
        assert set(calls) == {1}
        for block_rows in (1, 3 * rows - 1, 5 * rows - 1, default):
            monkeypatch.setattr(rotamert.descent, "BLOCK_ROWS", block_rows)
            size = max(1, block_rows // rows)
            calls.clear()
            assert repr(list(kcd_lockstep(packed, systems, None, config))) == repr(alone), block_rows
            assert max(calls) == min(size, len(systems) * per_step)
            for system, run in zip(systems, alone):
                calls.clear()
                assert repr(kcd_optimize(packed, None, system, config)) == repr(run), block_rows
                assert max(calls) == min(size, per_step)

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_a_failing_block_raises_the_serial_error(self, mode, monkeypatch):
        # Injected faults along each descent's tilted axis: alpha +0.3 fails
        # at its second search, +0.8 at its first.  A loop of lone descents
        # meets +0.3's fault first; a block holding both meets +0.8's first
        # and runs its descents again one at a time.
        packed, systems = self.setting()
        config = KcdConfig(max_iter=3, sweep_mode=mode)
        searched, failed = {}, []

        def failing(packed, starts, plans):
            for plan in plans:
                if len(plan.direction) == 2:  # each descent plans its tilted axis afresh
                    alpha = plan.direction[1][1]
                    searched[plan] = searched.get(plan, 0) + 1
                    if alpha > 0.5 or (alpha > 0.0 and searched[plan] == 2):
                        failed.append(len(plans))
                        raise InputError(f"alpha {alpha:+g} fails at search {searched[plan]}")
            return line_search(packed, starts, plans)

        monkeypatch.setattr(rotamert.descent, "line_search", failing)

        def serial_error():
            for system in systems:
                try:
                    kcd_optimize(packed, None, system, config)
                except InputError as error:
                    return str(error)

        serial = serial_error()
        assert serial == "alpha +0.3 fails at search 2"
        rows = len(packed.stats)
        for block_rows in (1, 3 * rows - 1, rotamert.descent.BLOCK_ROWS):
            monkeypatch.setattr(rotamert.descent, "BLOCK_ROWS", block_rows)
            assert serial_error() == serial
            failed.clear()
            with pytest.raises(InputError, match=f"^{re.escape(serial)}$"):
                list(kcd_lockstep(packed, systems, None, config))
            # A serial run raises at once; a block's batch meets +0.8 first.
            assert failed == [1] if block_rows == 1 else failed[0] > 1

    @pytest.mark.parametrize("step_axis, crossing_axis, message", [(1, 2, STEP_ERROR), (2, 1, CROSSING_ERROR)])
    def test_a_lone_best_direction_descent_raises_its_first_failing_axis(self, step_axis, crossing_axis, message):
        # One call searches all three axes, and its sweep meets the crossing
        # before any step is checked; the serial error is the first failing
        # axis' own.
        packed = failing_axes_pack(step_axis, crossing_axis)
        start = LineSearchResult.at(packed, (1.0, 0.0, 0.0))
        plans = [packed.plan([(i, 1.0)]) for i in range(3)]
        with pytest.raises(InputError, match=f"^{CROSSING_ERROR}$"):
            line_search(packed, [start] * 3, plans)
        line_search(packed, [start], plans[:1])
        with pytest.raises(InputError, match=f"^{message}$"):
            line_search(packed, [start], plans[1:2])
        with pytest.raises(InputError, match=f"^{message}$"):
            kcd_optimize(packed, (1.0, 0.0, 0.0), config=KcdConfig(sweep_mode="best-direction"))


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
