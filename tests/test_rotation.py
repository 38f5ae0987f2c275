import concurrent.futures
import itertools
import os
import pickle
import re
import tracemalloc
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

import rotamert
import rotamert.descent
import rotamert.rotation
from rotamert.bleu import ErrorValue
from rotamert.corpus import Hypothesis, TuningCorpus, build_corpus
from rotamert.descent import SWEEP_MODES, KcdConfig, KcdTrace, kcd_lockstep, kcd_optimize
from rotamert.envelope import PackedCorpus, SearchPlan
from rotamert.errors import (
    ConfigError,
    DimensionMismatch,
    GridEmpty,
    InputError,
    InvalidGrid,
    InvalidRotation,
)
from rotamert.rotation import (
    MAX_GRID_POINTS,
    AlphaGrid,
    CoordinateSystem,
    Rotation,
    format_alpha,
    grid_systems,
    rss_optimize,
    summary_rows,
    report_tsv,
)
from rotamert.synthetic import SynthSpec, generate

from instances import adversarial_certificate, adversarial_instance, counted, pack_rows, random_corpus
from oracles import dense_axis, first_argmax, selection_error


class TestRotation:
    def test_tilts_one_axis_toward_another(self):
        system = CoordinateSystem(3, (Rotation(0, 2, 0.3),))
        assert tuple(dense_axis(system, i) for i in range(3)) == (
            (1.0, 0.0, 0.3),
            (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0),
        )
        assert [system.axis(i) for i in range(3)] == [((0, 1.0), (2, 0.3)), ((1, 1.0),), ((2, 1.0),)]
        assert system.dim == 3 and system.provenance == (Rotation(0, 2, 0.3),)

    def test_direction_is_not_normalized(self):
        system = CoordinateSystem(2, (Rotation(0, 1, 1.0),))
        assert dense_axis(system, 0) == (1.0, 1.0)
        assert system.axis(0) == ((0, 1.0), (1, 1.0))

    def test_an_axis_holds_the_bits_of_its_dense_vector(self):
        # e_A + alpha * e_B at B is 0.0 + alpha, so alpha = -0.0 gives +0.0.
        for alpha in (-0.0, 0.0, -0.7, 2.5):
            system = CoordinateSystem(3, (Rotation(2, 0, alpha),))
            assert repr(system.axis(2)) == repr(((2, 1.0), (0, 0.0 + alpha)))
            assert repr(dense_axis(system, 2)) == repr((0.0 + alpha, 0.0, 1.0))

    def test_self_rotation_rejected(self):
        with pytest.raises(InvalidRotation):
            Rotation(1, 1, 0.5)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(InvalidRotation):
            Rotation(-1, 0, 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidRotation, match=r"^rotation \(0 -> 2\) out of range for 2 dimensions$"):
            CoordinateSystem(2, (Rotation(0, 2, 0.5),))

    def test_rotating_same_source_twice_rejected(self):
        with pytest.raises(InvalidRotation, match="^dimension 0 has already been rotated$"):
            CoordinateSystem(3, (Rotation(0, 1, 0.5), Rotation(0, 2, 0.5)))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidRotation):
            Rotation(0, 1, alpha)

    @pytest.mark.parametrize(
        "args, message",
        [
            # Once stored unread: a system with it ran the unrotated descent.
            ((0.5, 1, 0.7), "rotation from_dim must be an integer, got 0.5"),
            ((0, 1, True), "rotation alpha must be a real number, got True"),
            (("a", 1, 0.1), "rotation from_dim must be an integer, got 'a'"),
            ((0, np.float64(1.0), 0.1), "rotation to_dim must be an integer, got np.float64(1.0)"),
            ((0, 1, "x"), "rotation alpha must be a real number, got 'x'"),
        ],
    )
    def test_rotation_fields_are_read_one_strict_way(self, args, message):
        with pytest.raises(InvalidRotation, match=f"^{re.escape(message)}$"):
            CoordinateSystem(3, (Rotation(*args),))
        # Integers and numpy numbers are stored as int, int and float.
        rotation = Rotation(np.int64(2), np.intp(0), 1)
        assert rotation == Rotation(2, 0, 1.0)
        assert [type(v) for v in (rotation.from_dim, rotation.to_dim, rotation.alpha)] == [int, int, float]

    @pytest.mark.parametrize(
        "args, error, message",
        [
            (("3",), ConfigError, "dim must be an integer, got '3'"),
            ((3.0,), ConfigError, "dim must be an integer, got 3.0"),
            ((True,), ConfigError, "dim must be an integer, got True"),
            ((3, 5), InvalidRotation, "provenance must be a tuple of Rotations, got 5"),
            ((3, ((0, 1, 0.5),)), InvalidRotation, "provenance must be a tuple of Rotations, got ((0, 1, 0.5),)"),
            (
                (3, [Rotation(0, 1, 0.5)]),
                InvalidRotation,
                "provenance must be a tuple of Rotations, got [Rotation(from_dim=0, to_dim=1, alpha=0.5)]",
            ),
        ],
    )
    def test_system_fields_are_read_one_strict_way(self, args, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            CoordinateSystem(*args)
        assert type(CoordinateSystem(np.int64(3)).dim) is int

    def test_rotating_an_earlier_target_is_allowed(self):
        system = CoordinateSystem(3, (Rotation(0, 1, 0.5), Rotation(1, 2, -0.25)))
        assert dense_axis(system, 1) == (0.0, 1.0, -0.25)
        assert system.axis(1) == ((1, 1.0), (2, -0.25))
        assert len(system.provenance) == 2

    def test_the_descent_owns_both_types(self):
        # The alpha grid and the package re-export them; pool points pickle by that path.
        for name in ("Rotation", "CoordinateSystem"):
            assert getattr(rotamert.rotation, name) is getattr(rotamert.descent, name) is getattr(rotamert, name)
            assert getattr(rotamert.descent, name).__module__ == "rotamert.descent"
        system = CoordinateSystem(3, (Rotation(0, 2, -0.0),))
        assert pickle.loads(pickle.dumps(system)) == system
        assert not hasattr(system, "directions")

    def test_identity_needs_a_dimension(self):
        with pytest.raises(ConfigError, match="^need at least one dimension, got 0$"):
            CoordinateSystem(0)

    def test_a_system_costs_the_same_at_any_dimension(self):
        # Only the rotations are stored: no axis is built, at any M.
        tracemalloc.start()
        try:
            big = 10**12
            system = CoordinateSystem(big, (Rotation(0, big - 1, 0.5), Rotation(big - 1, 3, -1.0)))
            assert system.axis(big - 1) == ((big - 1, 1.0), (3, -1.0))
            assert system.axis(7) == ((7, 1.0),)
            points = grid_systems(10**5, ((0, 10**5 - 1),))
            assert len(points) == 21
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestAlphaGrid:
    def test_default_grid_has_21_points_with_exact_zero(self):
        points = AlphaGrid().points()
        assert len(points) == 21
        assert points[0] == -1.0
        assert points[10] == 0.0
        assert points[20] == 1.0
        assert all(a < b for a, b in zip(points, points[1:]))

    def test_single_point_grid(self):
        assert AlphaGrid(0.5, 0.5, 0.1).points() == (0.5,)

    def test_span_must_be_whole_steps(self):
        with pytest.raises(InvalidGrid):
            AlphaGrid(0.0, 1.0, 0.3)

    def test_step_must_be_positive(self):
        with pytest.raises(InvalidGrid):
            AlphaGrid(0.0, 1.0, 0.0)
        with pytest.raises(InvalidGrid):
            AlphaGrid(0.0, 1.0, -0.1)

    def test_start_cannot_exceed_end(self):
        with pytest.raises(InvalidGrid):
            AlphaGrid(1.0, -1.0, 0.1)

    @pytest.mark.parametrize(
        "bounds",
        [(float("nan"), 1.0, 0.1), (-1.0, float("inf"), 0.1), (-1.0, 1.0, float("nan"))],
    )
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(InvalidGrid):
            AlphaGrid(*bounds)

    @pytest.mark.parametrize(
        "args, field",
        [(("a", 1, 0.1), "start"), ((0, True, 0.5), "end"), ((0, 1, None), "step"), ((0, 1j, 0.5), "end")],
    )
    def test_fields_are_real_numbers(self, args, field):
        value = args[("start", "end", "step").index(field)]
        with pytest.raises(InvalidGrid, match=f"^grid {field} must be a real number, got {re.escape(repr(value))}$"):
            AlphaGrid(*args)
        # Integers and numpy numbers are accepted and stored as given.
        grid = AlphaGrid(0, np.float64(1.0), 1)
        assert (grid.start, grid.end, grid.step) == (0, 1.0, 1) and grid.points() == (0.0, 1.0)

    def test_point_count_is_capped_before_materializing(self, monkeypatch):
        def refuse(self):
            raise AssertionError("points() must not run")

        monkeypatch.setattr(AlphaGrid, "points", refuse)
        AlphaGrid(0.0, MAX_GRID_POINTS - 1.0, 1.0)  # exactly at the cap
        for start, end, step in [
            (0.0, float(MAX_GRID_POINTS), 1.0),
            (-1.0, 1.0, 1e-9),
            (-1e308, 1e308, 1.0),
            (-1.0, 1.0, 5e-324),
        ]:
            with pytest.raises(InvalidGrid):
                AlphaGrid(start, end, step)

    def test_format_alpha(self):
        assert format_alpha(0.2) == "+0.2"
        assert format_alpha(-0.4) == "-0.4"
        assert format_alpha(0.0) == "+0"
        assert format_alpha(1.0) == "+1"
        points = AlphaGrid().points()
        assert [format_alpha(a) for a in points[:3]] == ["-1", "-0.9", "-0.8"]


def one_hypothesis_corpus():
    good = ("g", "g", "g", "g")
    nbest = {
        0: [Hypothesis(0, 0, good, (0.5, -0.5))],
        1: [Hypothesis(1, 0, good, (-0.25, 1.0))],
    }
    return PackedCorpus.of(build_corpus(nbest, {0: [good], 1: [good]}))


class TestRssOptimize:
    def test_zero_only_grid_reproduces_plain_descent(self):
        for seed in range(10):
            corpus = PackedCorpus.of(random_corpus(seed, max_features=4)[0])
            if corpus.feature_dim < 2:
                continue
            plain_w, plain_trace = kcd_optimize(corpus)
            result = rss_optimize(
                corpus, corpus, rotation_spec=((0, 1),), grid=[0.0]
            )
            (record,) = result.records
            assert record.alpha == 0.0
            assert record.weights == plain_w
            assert record.trace == plain_trace
            assert result.selected_alpha == 0.0

    def test_selected_never_below_baseline(self):
        for seed in range(10):
            corpus = PackedCorpus.of(random_corpus(seed, max_features=4)[0])
            if corpus.feature_dim < 2:
                continue
            result = rss_optimize(
                corpus, corpus, rotation_spec=((0, 1),), grid=[-0.4, 0.0, 0.4]
            )
            assert result.baseline is not None
            assert result.selected.closed_bleu >= result.baseline.closed_bleu

    def test_closed_bleu_is_the_score_of_the_final_weights(self, monkeypatch):
        corpus = closed = PackedCorpus.of(random_corpus(7, min_features=2)[0])

        def fresh_bleu(weights):
            return closed.argmax_error(closed.project(weights)).bleu

        grid = [-0.5, 0.0, 0.5]
        result = rss_optimize(corpus, corpus, rotation_spec=((0, 1),), grid=grid)
        for record in result.records:
            assert record.trace.steps
            assert record.closed_bleu == fresh_bleu(record.weights)
        # The closed score is the descent's final error, taken as it is.
        final = ErrorValue(0.75, 0.25)
        monkeypatch.setattr(
            rotamert.rotation,
            "kcd_lockstep",
            lambda corpus, systems, w, config: [(w, KcdTrace((), w, 1, final, "max_iter")) for _ in systems],
        )
        result = rss_optimize(corpus, corpus, rotation_spec=((0, 1),), grid=grid)
        for record in result.records:
            assert record.closed_bleu == final.bleu

    def test_all_tied_selects_zero(self):
        corpus = one_hypothesis_corpus()
        result = rss_optimize(
            corpus, corpus, rotation_spec=((0, 1),), grid=[-0.5, 0.0, 0.5]
        )
        assert result.selected_alpha == 0.0

    def test_exact_magnitude_tie_prefers_negative(self):
        corpus = one_hypothesis_corpus()
        result = rss_optimize(
            corpus, corpus, rotation_spec=((0, 1),), grid=[-0.5, 0.5]
        )
        assert result.selected_alpha == -0.5

    def test_every_run_starts_from_the_same_weights(self):
        corpus = one_hypothesis_corpus()
        init = (2.0, 3.0)
        result = rss_optimize(
            corpus, corpus, init, rotation_spec=((0, 1),), grid=[-1.0, 0.0, 1.0]
        )
        # One hypothesis per sentence means no step is ever taken.
        for record in result.records:
            assert record.weights == init

    def test_fixed_spec_runs_single_evaluation(self):
        corpus = PackedCorpus.of(random_corpus(3, max_features=4)[0])
        if corpus.feature_dim < 2:
            corpus = one_hypothesis_corpus()
        result = rss_optimize(corpus, corpus, rotation_spec=((0, 1, 0.3),))
        assert len(result.records) == 1
        assert result.records[0].alpha == 0.3
        assert result.baseline is None

    @pytest.mark.parametrize(
        "spec, grid",
        [
            (((0, 1),), [0.0, float("nan")]),
            (((0, 1), (5, 0, 0.5)), [0.0]),
            (((0, 1, 0.5), (2, 1, 0.5)), None),
            (((0, 1), (1, 0, 0.5), (1, 0, 0.25)), [0.0]),
        ],
    )
    def test_every_point_is_checked_before_anything_is_packed(self, monkeypatch, spec, grid):
        def refuse(*args):
            raise AssertionError("packed or descended before every grid point was checked")

        corpus = one_hypothesis_corpus()
        monkeypatch.setattr(PackedCorpus, "of", staticmethod(refuse))
        monkeypatch.setattr(rotamert.rotation, "kcd_lockstep", refuse)
        with pytest.raises(ConfigError):
            rss_optimize(corpus, corpus, rotation_spec=spec, grid=grid)

    def test_grid_systems_tilt_the_fixed_base_once_per_alpha(self):
        points = grid_systems(3, ((0, 1), (2, 0, 0.5)), [-0.5, 0.0])
        assert [alpha for alpha, _ in points] == [-0.5, 0.0]
        for alpha, system in points:
            axes = tuple(dense_axis(system, i) for i in range(3))
            assert axes == ((1.0, alpha, 0.0), (0.0, 1.0, 0.0), (0.5, 0.0, 1.0))
            assert system.provenance == (Rotation(2, 0, 0.5), Rotation(0, 1, alpha))
        # Fixed rotations only: one point, labeled by the first alpha.
        ((alpha, system),) = grid_systems(3, ((1, 2, 0.25), (0, 1, -1.0)))
        assert alpha == 0.25
        axes = tuple(dense_axis(system, i) for i in range(3))
        assert axes == ((1.0, -1.0, 0.0), (0.0, 1.0, 0.25), (0.0, 0.0, 1.0))
        # No rotation: one point, the unrotated system labeled 0.0, whatever the grid.
        for grid in (None, [0.5, 1.0], [], [float("nan")]):
            assert grid_systems(2, (), grid) == ((0.0, CoordinateSystem(2)),)

    def test_no_rotation_runs_one_descent_and_it_is_the_baseline(self, monkeypatch):
        corpus = PackedCorpus.of(adversarial_instance())
        calls = []

        def counted(*args):
            calls.append(args)
            return kcd_lockstep(*args)

        monkeypatch.setattr(rotamert.rotation, "kcd_lockstep", counted)
        result = rss_optimize(corpus, corpus)
        assert len(calls) == 1
        (record,) = result.records
        assert record.alpha == 0.0 and result.selected_alpha == 0.0
        assert result.baseline is record
        assert (record.weights, record.trace) == kcd_optimize(corpus)
        calls.clear()
        assert rss_optimize(corpus, corpus, grid=[float("nan")]).selected == record
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_an_open_scoring_error_comes_in_serial_order(self, mode, monkeypatch):
        # The third point's open scores overflow and the fifth point's
        # descent fails.  A serial run scores the third point before the
        # fifth descends, so the open error is raised, also when the points
        # after the first descend in one lockstep block that meets the
        # fifth point's fault and reruns its points one at a time.
        corpus = generate(SynthSpec(12, 8, 3, correlated_pairs=((0, 1, 0.9),), seed=1))[0]
        closed, opened = PackedCorpus.of(corpus), PackedCorpus.of(corpus)
        config = KcdConfig(max_iter=3, sweep_mode=mode)
        real_project, real_search = PackedCorpus.project, rotamert.descent.line_search
        scored, batches = [], []

        def project(self, v):
            if self is opened:
                scored.append(v)
                if overflow and len(scored) == 3:
                    raise InputError("the third point's open scores overflow")
            return real_project(self, v)

        def search(packed, starts, plans):
            batches.append(len(plans))
            if any(plan.direction[1:] == ((1, 0.4),) for plan in plans):
                raise InputError("the fifth point's descent fails")
            return real_search(packed, starts, plans)

        monkeypatch.setattr(PackedCorpus, "project", project)
        monkeypatch.setattr(rotamert.descent, "line_search", search)
        grid = [-0.4, -0.2, 0.0, 0.2, 0.4, 0.6]
        for overflow, block_rows, message in [
            (False, rotamert.descent.BLOCK_ROWS, "the fifth point's descent fails"),
            (True, rotamert.descent.BLOCK_ROWS, "the third point's open scores overflow"),
            (True, 1, "the third point's open scores overflow"),
        ]:
            monkeypatch.setattr(rotamert.descent, "BLOCK_ROWS", block_rows)
            scored.clear(), batches.clear()
            with pytest.raises(InputError, match=f"^{message}$"):
                rss_optimize(closed, opened, rotation_spec=((0, 1),), grid=grid, config=config)
            assert len(scored) == (4 if not overflow else 3)
            assert max(batches) > 1 if block_rows > 1 else set(batches) == {1}

    # Items of two or three parts are read by Rotation, which names the field:
    # no number is coerced, and a bool is never a number.
    FIELD_REFUSALS = {
        (0, "x"): "rotation to_dim must be an integer, got 'x'",
        (0, 1, None): "rotation alpha must be a real number, got None",
        (0.9, 1.7): "rotation from_dim must be an integer, got 0.9",
        "12": "rotation from_dim must be an integer, got '1'",
        ("0", "1"): "rotation from_dim must be an integer, got '0'",
        (True, 2): "rotation from_dim must be an integer, got True",
        (0, 1, "0.5"): "rotation alpha must be a real number, got '0.5'",
        (0, 1, True): "rotation alpha must be a real number, got True",
    }

    @pytest.mark.parametrize(
        "item",
        [
            (0,), (0, 1, 0.5, 2), 5, None, (0, "x"), (0, 1, None), Rotation(0, 1, 0.5),
            (0.9, 1.7), "12", ("0", "1"), (True, 2), (0, 1, "0.5"), (0, 1, True),
        ],
    )
    def test_grid_systems_items_have_two_or_three_parts(self, item):
        if item in self.FIELD_REFUSALS:
            error, message = InvalidRotation, re.escape(self.FIELD_REFUSALS[item])
        else:
            error, message = ConfigError, r"rotation items must be \(from, to\) or \(from, to, alpha\), got "
        with pytest.raises(error, match=f"^{message}"):
            grid_systems(3, (item,))

    def test_grid_systems_reads_numpy_numbers_as_python_ones(self):
        spec = ((np.int64(0), np.int32(1)), (np.int64(2), 0, np.float64(1)))
        points = grid_systems(3, spec, np.array([-0.5, 0.0]))
        assert points == grid_systems(3, ((0, 1), (2, 0, 1)), [-0.5, 0.0])
        for alpha, system in points:
            assert type(alpha) is float
            assert {type(r.alpha) for r in system.provenance} == {float}
            assert {type(r.from_dim) for r in system.provenance} == {int}
            assert {type(c) for i in range(3) for c in dense_axis(system, i)} == {float}
            assert {type(c) for i in range(3) for _, c in system.axis(i)} == {float}
        # An int alpha is read as a float, from an item or from the grid.
        ((alpha, system),) = grid_systems(3, ((1, 2, 1),))
        assert type(alpha) is float and system.provenance == (Rotation(1, 2, 1.0),)
        assert [type(a) for a, _ in grid_systems(3, ((0, 1),), [0, 1])] == [float, float]

    @pytest.mark.parametrize("value", ["0.5", True, None, np.bool_(False), 1j])
    def test_grid_values_must_be_real_numbers(self, value):
        # Each value is the gridded Rotation's alpha, read by Rotation.
        with pytest.raises(
            InvalidRotation, match=rf"^rotation alpha must be a real number, got {re.escape(repr(value))}$"
        ):
            grid_systems(3, ((0, 1),), [0.0, value])

    def test_every_grid_is_bounded_as_it_is_read(self, monkeypatch):
        def endless():
            for count in itertools.count(1):
                if count > MAX_GRID_POINTS + 1:
                    raise AssertionError("read past MAX_GRID_POINTS + 1 values")
                yield 0.0

        with pytest.raises(InvalidGrid, match=f"^alpha grid has more than {MAX_GRID_POINTS} points$"):
            grid_systems(2, ((0, 1),), endless())
        monkeypatch.setattr(rotamert.rotation, "MAX_GRID_POINTS", 3)
        assert len(grid_systems(2, ((0, 1),), [0.0, 0.1, 0.2])) == 3
        with pytest.raises(InvalidGrid, match="^alpha grid has more than 3 points$"):
            grid_systems(2, ((0, 1),), [0.0, 0.1, 0.2, 0.3])

    @pytest.mark.parametrize("grid", [5, 0.5])
    def test_a_grid_that_is_not_iterable_is_refused(self, grid):
        with pytest.raises(
            InvalidGrid, match=f"^alpha grid must be an AlphaGrid or an iterable of numbers, got {grid}$"
        ):
            grid_systems(2, ((0, 1),), grid)

    @pytest.mark.parametrize(
        "item, message",
        [
            ((0, 1, 0.5), "dimension 0 has already been rotated"),
            ((0, 1), "only the first rotation may omit alpha"),
        ],
    )
    def test_an_endless_spec_is_read_at_most_one_past_the_dimension(self, item, message):
        # A valid spec tilts each of the 2 axes at most once, so 3 items are read at most.
        corpus = one_hypothesis_corpus()
        for call in (partial(grid_systems, 2), partial(rss_optimize, corpus, corpus, None)):
            read = []
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
                call(counted(itertools.repeat(item), read))
            assert len(read) == 3
        # A spec with a length is read whole and raises alike.
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            grid_systems(2, (item,) * 5)

    def test_endless_initial_weights_are_read_at_most_one_past_the_dimension(self):
        corpus, read = one_hypothesis_corpus(), []
        with pytest.raises(DimensionMismatch, match="^more than 2 initial weights for 2 features$"):
            rss_optimize(corpus, corpus, counted(itertools.repeat(0.5), read), ((0, 1),), [0.0])
        assert len(read) == 3

    def test_a_spec_that_is_not_iterable_is_refused(self):
        message = "^rotation spec must be an iterable that is not a string, got int$"
        with pytest.raises(ConfigError, match=message):
            grid_systems(2, 5)
        corpus = one_hypothesis_corpus()
        with pytest.raises(ConfigError, match=message):
            rss_optimize(corpus, corpus, rotation_spec=5)

    @pytest.mark.parametrize("jobs", ["2", 0, -3, True, 1.5, None])
    def test_jobs_is_an_integer_of_at_least_one(self, jobs):
        # Refused as the CLI refuses --jobs 0.
        corpus = one_hypothesis_corpus()
        if type(jobs) is int:
            message = f"jobs must be at least 1, got {jobs}"
        else:
            message = f"jobs must be an integer, got {jobs!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            rss_optimize(corpus, corpus, rotation_spec=((0, 1),), jobs=jobs)

    def test_a_corpus_is_a_pack(self):
        corpus = one_hypothesis_corpus()
        tuning = build_corpus({0: [Hypothesis(0, 0, ("g",), (0.5, -0.5))]}, {0: [("g",)]})
        for bad in (5, None, tuning):
            name = type(bad).__name__
            with pytest.raises(ConfigError, match=f"^closed_corpus must be a PackedCorpus, got {name}$"):
                rss_optimize(bad, corpus, rotation_spec=((0, 1),))
            with pytest.raises(ConfigError, match=f"^open_corpus must be a PackedCorpus, got {name}$"):
                rss_optimize(corpus, bad, rotation_spec=((0, 1),))

    def test_a_config_that_is_not_a_kcd_config_is_refused(self):
        corpus = one_hypothesis_corpus()
        with pytest.raises(ConfigError, match="^config must be a KcdConfig, got str$"):
            rss_optimize(corpus, corpus, rotation_spec=((0, 1),), config="x")

    @pytest.mark.parametrize("spec", [((0, 1),), ((0, 1), (1, 0, 0.5)), ((1, 0, 0.0),), ()])
    def test_a_spec_is_read_once(self, spec):
        # An iterator spec gives the result of the tuple, baseline row included.
        corpus = PackedCorpus.of(adversarial_instance())
        grid = [-0.5, 0.0, 0.5]
        result = rss_optimize(corpus, corpus, rotation_spec=iter(spec), grid=grid)
        assert result == rss_optimize(corpus, corpus, rotation_spec=spec, grid=grid)
        assert (result.baseline is None) == (spec == ((1, 0, 0.0),))

    def test_numpy_inputs_write_the_bytes_of_python_ones(self):
        closed = PackedCorpus.of(random_corpus(5, min_features=3)[0])
        dim = closed.feature_dim
        opened = PackedCorpus.of(random_corpus(6, min_features=dim, max_features=dim)[0])
        start = np.linspace(-0.5, 0.5, dim)
        traces = [kcd_optimize(closed, w)[1].to_tsv() for w in (start, start.tolist())]
        assert traces[0] == traces[1]
        reports = [
            report_tsv(rss_optimize(closed, opened, w, ((0, 1),), grid), closed.feature_names)
            for w, grid in (
                (start, np.array([-0.5, 0.0, 0.5])),
                (start.tolist(), [-0.5, 0.0, 0.5]),
            )
        ]
        assert reports[0] == reports[1]
        assert "np." not in reports[0]

    def test_fixed_rotations_alone_have_no_baseline(self):
        corpus = PackedCorpus.of(random_corpus(3, min_features=3)[0])
        for spec in (((0, 1, 0.0), (1, 2, 0.5)), ((0, 1, 0.0),), ((0, 1, 0.5),)):
            result = rss_optimize(corpus, corpus, rotation_spec=spec)
            assert result.baseline is None
            assert "baseline" not in summary_rows(result)
        # The gridded pair's alpha = 0 point, with the fixed rotations applied, is.
        result = rss_optimize(corpus, corpus, rotation_spec=((0, 1), (1, 2, 0.5)), grid=[-0.5, 0.0])
        assert result.baseline is result.records[1]

    def test_later_pair_must_fix_alpha(self):
        corpus = one_hypothesis_corpus()
        with pytest.raises(ConfigError):
            rss_optimize(corpus, corpus, rotation_spec=((0, 1), (1, 0)))

    def test_empty_grid_rejected(self):
        corpus = one_hypothesis_corpus()
        with pytest.raises(GridEmpty):
            rss_optimize(corpus, corpus, rotation_spec=((0, 1),), grid=[])

    def test_feature_dims_must_agree(self):
        corpus = one_hypothesis_corpus()
        other = PackedCorpus.of(random_corpus(2, max_features=1)[0])
        if other.feature_dim == corpus.feature_dim:
            pytest.skip("random corpus happened to match dimensions")
        with pytest.raises(DimensionMismatch):
            rss_optimize(corpus, other, rotation_spec=((0, 1),))

    def test_process_parallelism_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_ROWS", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool starts on any host
        corpus = PackedCorpus.of(adversarial_instance())
        serial = rss_optimize(
            corpus, corpus, (1.0, 1.0), rotation_spec=((0, 1),), grid=[-0.2, 0.0, 0.2]
        )
        parallel = rss_optimize(
            corpus,
            corpus,
            (1.0, 1.0),
            rotation_spec=((0, 1),),
            grid=[-0.2, 0.0, 0.2],
            jobs=3,
        )
        assert serial == parallel

    def test_one_point_grid_starts_no_pool(self, monkeypatch):
        corpus = PackedCorpus.of(adversarial_instance())
        specs = [dict(rotation_spec=((0, 1),), grid=[0.2]), dict(rotation_spec=((0, 1, 0.2),))]
        serial = [rss_optimize(corpus, corpus, (1.0, 1.0), **spec) for spec in specs]

        def refuse(*args, **kwargs):
            raise AssertionError("one grid point must run in-process")

        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_ROWS", 0)  # any amount of work
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # and on any host
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        for spec, expected in zip(specs, serial):
            assert rss_optimize(corpus, corpus, (1.0, 1.0), **spec, jobs=4) == expected

    @pytest.mark.parametrize(
        "rows, features, points, jobs, cpus, workers",
        [
            # (rows, features, points) at the constant start the pool, one row fewer does not.
            ("at", 4, 21, 2, 2, 2),
            ("below", 4, 21, 2, 2, None),
            ("at", 8, 16, 4, 2, 2),
            ("below", 8, 16, 4, 2, None),
            ("at", 8, 3, 8, 8, 3),  # no more workers than points
            ("at", 3, 21, 8, 4, 4),  # nor than CPUs
            ("at", 3, 21, 3, 4, 3),  # nor than jobs
            # One worker is no pool, whatever the size.
            ("at", 4, 1, 4, 4, None),
            ("at", 4, 21, 1, 4, None),
            ("at", 4, 21, 4, 1, None),
            (30 * 25, 4, 21, 2, 2, None),  # the rss-grid benchmark's size stays serial
        ],
    )
    def test_the_pool_rule_reads_only_sizes(self, monkeypatch, rows, features, points, jobs, cpus, workers):
        # Stubs record how the points would run, and raise before a process
        # exists or a point descends, so no clock or host is read.
        started = []

        class Ran(Exception):
            pass

        def record(kind):
            def stub(*args, **kwargs):
                started.append(args[0] if kind == "pool" else kind)
                raise Ran

            return stub

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record("pool"))
        monkeypatch.setattr(rotamert.rotation, "_grid_block", record("in-process"))
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if rows in ("at", "below"):
            # The fewest rows whose grid reaches the constant, or one row fewer.
            rows = -(-rotamert.rotation.POOL_MIN_ROWS // (features * points)) - (rows == "below")
        packed = pack_rows(np.zeros((rows, features)), [rows], np.zeros((rows, 10), dtype=np.int64))
        grid = [k / 10 for k in range(points)]
        with pytest.raises(Ran):
            rss_optimize(packed, packed, rotation_spec=((0, 1),), grid=grid, jobs=jobs)
        assert started == [workers or "in-process"]

    def test_pool_needs_two_points_and_enough_work(self, monkeypatch):
        corpus = PackedCorpus.of(adversarial_instance())
        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                started.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_ROWS", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool starts on any host
        spec = dict(rotation_spec=((0, 1),), jobs=4)
        serial = rss_optimize(corpus, corpus, (1.0, 1.0), grid=[0.0, 0.5], rotation_spec=((0, 1),))
        assert rss_optimize(corpus, corpus, (1.0, 1.0), grid=[0.0, 0.5], **spec) == serial
        assert started == [2]  # every point runs in the pool, the first too
        rss_optimize(corpus, corpus, (1.0, 1.0), grid=[0.5], **spec)
        assert started == [2]  # one point is no pool
        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_ROWS", len(corpus.stats) * 2 * 2 + 1)
        assert rss_optimize(corpus, corpus, (1.0, 1.0), grid=[0.0, 0.5], **spec) == serial
        assert started == [2]  # the grid one row short of the constant

    def test_workers_never_outnumber_the_cpus(self, monkeypatch):
        # The stub records the pool's size, then raises before any process exists.
        requested = []

        class NoPool(Exception):
            pass

        def record(workers, **kwargs):
            requested.append(workers)
            raise NoPool

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_ROWS", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        corpus = PackedCorpus.of(adversarial_instance())
        spec = dict(rotation_spec=((0, 1),), grid=AlphaGrid(0.0, 10_000.0, 1.0), jobs=10_000)
        with pytest.raises(NoPool):  # 10,001 points, 10,000 jobs
            rss_optimize(corpus, corpus, (1.0, 1.0), **spec)
        assert requested == [2]

    def test_no_corpus_object_crosses_the_process_boundary(self, monkeypatch):
        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_ROWS", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool starts on any host
        adv = PackedCorpus.of(adversarial_instance())
        serial = rss_optimize(adv, adv, (1.0, 1.0), rotation_spec=((0, 1),))

        def refuse(self, protocol):
            raise AssertionError(f"{type(self).__name__} was pickled")

        monkeypatch.setattr(TuningCorpus, "__reduce_ex__", refuse)
        assert rss_optimize(adv, adv, (1.0, 1.0), rotation_spec=((0, 1),), jobs=2) == serial


def same_arrays(a, b):
    """Equal values, dtypes and shapes, through tuples; floats by ``repr``."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_arrays, a, b))
    return repr(a) == repr(b)


def test_axis_plans_are_built_once_per_pack_and_shared_by_every_alpha(monkeypatch):
    built = []
    plan_of = SearchPlan.of

    def recording_plan(direction, *args):
        built.append(direction)
        return plan_of(direction, *args)

    monkeypatch.setattr(SearchPlan, "of", staticmethod(recording_plan))
    closed = PackedCorpus.of(random_corpus(4100, min_features=3)[0])
    grid = [-0.5, 0.0, 0.5]
    rss_optimize(closed, closed, rotation_spec=((0, 1),), grid=grid)
    dim = closed.feature_dim
    # Axes 1..M-1 once for the whole grid, by index; the tilted axis once
    # per alpha, and never kept.
    assert len(built) == dim - 1 + len(grid)
    assert sorted(closed._axis_plans) == list(range(1, dim))
    monkeypatch.undo()
    for index, plan in closed._axis_plans.items():
        assert plan.direction == ((index, 1.0),)
        # The column's slopes are the bits of the dense axis' projection.
        dense = dense_axis(CoordinateSystem(dim), index)
        fresh = SearchPlan.of(plan.direction, closed.project(dense), closed.sentence, closed.size)
        for field in fields(SearchPlan):
            assert same_arrays(getattr(plan, field.name), getattr(fresh, field.name)), field.name


class TestAdversarialFixture:
    def test_plain_descent_stalls_below_global_optimum(self):
        packed = PackedCorpus.of(adversarial_instance())
        cert = adversarial_certificate()
        weights, _ = kcd_optimize(packed, tuple(cert["init_weights"]))
        selection = first_argmax(packed, packed.project(weights))
        assert selection == cert["stalled_selection"]
        stalled = selection_error(packed, selection)
        assert stalled.bleu == cert["stalled_bleu"]
        assert stalled.bleu < cert["grid_best_bleu"]

    def test_rotation_grid_escapes_the_stall(self):
        corpus = PackedCorpus.of(adversarial_instance())
        cert = adversarial_certificate()
        result = rss_optimize(
            corpus,
            corpus,
            tuple(cert["init_weights"]),
            rotation_spec=(tuple(cert["rotation"]),),
        )
        assert result.selected_alpha == cert["selected_alpha"]
        assert result.selected.closed_bleu == cert["selected_bleu"]
        assert result.baseline is not None
        assert result.baseline.closed_bleu == cert["stalled_bleu"]
        winning = [r.alpha for r in result.records if r.closed_bleu == cert["selected_bleu"]]
        assert winning == cert["winning_alphas"]

    def test_open_scores_are_recorded_but_not_consulted(self):
        closed = PackedCorpus.of(adversarial_instance())
        cert = adversarial_certificate()
        # The open split prefers first-quadrant weights, the opposite of
        # what escaping the stall requires on the closed split.
        good = ("g", "g", "g", "g")
        bad = ("z", "z", "z", "z")
        nbest = {
            0: [
                Hypothesis(0, 0, good, (1.0, 1.0)),
                Hypothesis(0, 1, bad, (-1.0, -1.0)),
            ]
        }
        opened = PackedCorpus.of(build_corpus(nbest, {0: [good]}))
        result = rss_optimize(
            closed,
            opened,
            tuple(cert["init_weights"]),
            rotation_spec=(tuple(cert["rotation"]),),
        )
        assert result.selected_alpha == cert["selected_alpha"]
        assert result.selected.open_bleu < result.baseline.open_bleu
        assert result.selected.closed_bleu > result.baseline.closed_bleu


class TestReports:
    def test_summary_has_baseline_and_best_rows(self):
        corpus = PackedCorpus.of(adversarial_instance())
        cert = adversarial_certificate()
        result = rss_optimize(
            corpus, corpus, tuple(cert["init_weights"]), rotation_spec=((0, 1),)
        )
        rows = summary_rows(result).splitlines()
        assert rows[0] == "system\talpha\tclosed_bleu\topen_bleu"
        assert rows[1].startswith("baseline\t\t51.49\t")
        assert rows[2].startswith("best\t+0.2\t100.00\t")

    def test_report_lists_every_grid_point(self):
        corpus = PackedCorpus.of(adversarial_instance())
        result = rss_optimize(
            corpus, corpus, (1.0, 1.0), rotation_spec=((0, 1),)
        )
        text = report_tsv(result, corpus.feature_names)
        block, summary = text.split("\n\n")
        rows = block.splitlines()
        assert rows[0] == "alpha\tclosed_bleu\topen_bleu\tf0\tf1"
        assert len(rows) == 22
        alphas = [r.split("\t")[0] for r in rows[1:]]
        assert alphas[0] == "-1"
        assert alphas[10] == "+0"
        assert alphas[-1] == "+1"
        for row in rows[1:]:
            fields = row.split("\t")
            assert len(fields) == 5
            float(fields[3]), float(fields[4])
        assert summary.splitlines()[0] == "system\talpha\tclosed_bleu\topen_bleu"
