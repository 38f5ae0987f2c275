import concurrent.futures
import os
from dataclasses import fields

import numpy as np
import pytest

import rotamert.rotation
from rotamert.bleu import ErrorValue
from rotamert.corpus import Hypothesis, TuningCorpus, build_corpus
from rotamert.descent import KcdConfig, KcdTrace, basis_directions, kcd_optimize
from rotamert.envelope import PackedCorpus, SearchPlan
from rotamert.errors import (
    ConfigError,
    DimensionMismatch,
    GridEmpty,
    InvalidGrid,
    InvalidRotation,
)
from rotamert.rotation import (
    MAX_GRID_POINTS,
    AlphaGrid,
    CoordinateSystem,
    Rotation,
    apply_rotation,
    format_alpha,
    grid_systems,
    identity_system,
    rss_optimize,
    summary_rows,
    report_tsv,
)
from rotamert.synthetic import adversarial_certificate, adversarial_instance

from instances import random_corpus
from oracles import first_argmax, selection_error


class TestRotation:
    def test_tilts_one_axis_toward_another(self):
        system = apply_rotation(identity_system(3), Rotation(0, 2, 0.3))
        assert system.directions == (
            (1.0, 0.0, 0.3),
            (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0),
        )
        assert system.provenance == (Rotation(0, 2, 0.3),)

    def test_direction_is_not_normalized(self):
        system = apply_rotation(identity_system(2), Rotation(0, 1, 1.0))
        assert system.directions[0] == (1.0, 1.0)

    def test_self_rotation_rejected(self):
        with pytest.raises(InvalidRotation):
            Rotation(1, 1, 0.5)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(InvalidRotation):
            Rotation(-1, 0, 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidRotation):
            apply_rotation(identity_system(2), Rotation(0, 2, 0.5))

    def test_rotating_same_source_twice_rejected(self):
        system = apply_rotation(identity_system(3), Rotation(0, 1, 0.5))
        with pytest.raises(InvalidRotation):
            apply_rotation(system, Rotation(0, 2, 0.5))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidRotation):
            Rotation(0, 1, alpha)

    def test_rotating_an_earlier_target_is_allowed(self):
        system = apply_rotation(identity_system(3), Rotation(0, 1, 0.5))
        system = apply_rotation(system, Rotation(1, 2, -0.25))
        assert system.directions[1] == (0.0, 1.0, -0.25)
        assert len(system.provenance) == 2

    def test_identity_needs_a_dimension(self):
        with pytest.raises(ConfigError, match="^need at least one dimension, got 0$"):
            identity_system(0)


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
    return build_corpus(nbest, {0: [good], 1: [good]})


class TestRssOptimize:
    def test_zero_only_grid_reproduces_plain_descent(self):
        for seed in range(10):
            corpus, _ = random_corpus(seed, max_features=4)
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
            corpus, _ = random_corpus(seed, max_features=4)
            if corpus.feature_dim < 2:
                continue
            result = rss_optimize(
                corpus, corpus, rotation_spec=((0, 1),), grid=[-0.4, 0.0, 0.4]
            )
            assert result.baseline is not None
            assert result.selected.closed_bleu >= result.baseline.closed_bleu

    def test_closed_bleu_is_the_score_of_the_final_weights(self, monkeypatch):
        corpus, _ = random_corpus(7, min_features=2)
        closed = PackedCorpus.of(corpus)

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
            "kcd_optimize",
            lambda corpus, w, system, config: (w, KcdTrace((), w, 1, final)),
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
        corpus, _ = random_corpus(3, max_features=4)
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

        monkeypatch.setattr(PackedCorpus, "of", staticmethod(refuse))
        monkeypatch.setattr(rotamert.rotation, "kcd_optimize", refuse)
        corpus = one_hypothesis_corpus()
        with pytest.raises(ConfigError):
            rss_optimize(corpus, corpus, rotation_spec=spec, grid=grid)

    def test_grid_systems_tilt_the_fixed_base_once_per_alpha(self):
        points = grid_systems(3, ((0, 1), (2, 0, 0.5)), [-0.5, 0.0])
        assert [alpha for alpha, _ in points] == [-0.5, 0.0]
        for alpha, system in points:
            assert system.directions == ((1.0, alpha, 0.0), (0.0, 1.0, 0.0), (0.5, 0.0, 1.0))
            assert system.provenance == (Rotation(2, 0, 0.5), Rotation(0, 1, alpha))
        # Fixed rotations only: one point, labeled by the first alpha.
        ((alpha, system),) = grid_systems(3, ((1, 2, 0.25), (0, 1, -1.0)))
        assert alpha == 0.25
        assert system.directions == ((1.0, -1.0, 0.0), (0.0, 1.0, 0.25), (0.0, 0.0, 1.0))
        # No rotation: one point, the unrotated system labeled 0.0, whatever the grid.
        for grid in (None, [0.5, 1.0], [], [float("nan")]):
            assert grid_systems(2, (), grid) == ((0.0, identity_system(2)),)

    def test_no_rotation_runs_one_descent_and_it_is_the_baseline(self, monkeypatch):
        corpus = adversarial_instance()
        calls = []

        def counted(*args):
            calls.append(args)
            return kcd_optimize(*args)

        monkeypatch.setattr(rotamert.rotation, "kcd_optimize", counted)
        result = rss_optimize(corpus, corpus)
        assert len(calls) == 1
        (record,) = result.records
        assert record.alpha == 0.0 and result.selected_alpha == 0.0
        assert result.baseline is record
        assert (record.weights, record.trace) == kcd_optimize(corpus)
        calls.clear()
        assert rss_optimize(corpus, corpus, grid=[float("nan")]).selected == record
        assert len(calls) == 1

    @pytest.mark.parametrize("item", [(0,), (0, 1, 0.5, 2)])
    def test_grid_systems_items_have_two_or_three_parts(self, item):
        with pytest.raises(
            ConfigError, match=r"^rotation items must be \(from, to\) or \(from, to, alpha\), got "
        ):
            grid_systems(3, (item,))

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
        other, _ = random_corpus(2, max_features=1)
        if other.feature_dim == corpus.feature_dim:
            pytest.skip("random corpus happened to match dimensions")
        with pytest.raises(DimensionMismatch):
            rss_optimize(corpus, other, rotation_spec=((0, 1),))

    def test_process_parallelism_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_SECONDS", 0.0)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool starts on any host
        corpus = adversarial_instance()
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
        corpus = adversarial_instance()
        specs = [dict(rotation_spec=((0, 1),), grid=[0.2]), dict(rotation_spec=((0, 1, 0.2),))]
        serial = [rss_optimize(corpus, corpus, (1.0, 1.0), **spec) for spec in specs]

        def refuse(*args, **kwargs):
            raise AssertionError("one grid point must run in-process")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        for spec, expected in zip(specs, serial):
            assert rss_optimize(corpus, corpus, (1.0, 1.0), **spec, jobs=4) == expected

    def test_short_grid_starts_no_pool(self, monkeypatch):
        # 21 points of a few milliseconds each are far below POOL_MIN_SECONDS.
        corpus = adversarial_instance()
        serial = rss_optimize(corpus, corpus, (1.0, 1.0), rotation_spec=((0, 1),))

        def refuse(*args, **kwargs):
            raise AssertionError("a short grid must run in-process")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        assert rss_optimize(corpus, corpus, (1.0, 1.0), rotation_spec=((0, 1),), jobs=2) == serial

    def test_pool_needs_two_remaining_points_and_enough_work(self, monkeypatch):
        corpus = adversarial_instance()
        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                started.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_SECONDS", 0.0)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool starts on any host
        spec = dict(rotation_spec=((0, 1),), jobs=4)
        rss_optimize(corpus, corpus, (1.0, 1.0), grid=[0.0, 0.5], **spec)
        assert started == []  # one point left after the first
        rss_optimize(corpus, corpus, (1.0, 1.0), grid=[-0.5, 0.0, 0.5], **spec)
        assert started == [2]  # no more workers than points left
        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_SECONDS", float("inf"))
        rss_optimize(corpus, corpus, (1.0, 1.0), grid=[-0.5, 0.0, 0.5], **spec)
        assert started == [2]

    def test_workers_never_outnumber_the_cpus(self, monkeypatch):
        # The stub records the pool's size, then raises before any process exists.
        requested = []

        class NoPool(Exception):
            pass

        def record(workers, **kwargs):
            requested.append(workers)
            raise NoPool

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_SECONDS", 0.0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        corpus = adversarial_instance()
        spec = dict(rotation_spec=((0, 1),), grid=AlphaGrid(0.0, 10_000.0, 1.0), jobs=10_000)
        with pytest.raises(NoPool):  # 10,001 points, 10,000 jobs
            rss_optimize(corpus, corpus, (1.0, 1.0), **spec)
        assert requested == [2]

    def test_no_corpus_object_crosses_the_process_boundary(self, monkeypatch):
        monkeypatch.setattr(rotamert.rotation, "POOL_MIN_SECONDS", 0.0)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool starts on any host
        adv = adversarial_instance()
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
    packs, built = [], []
    pack, plan_of = PackedCorpus.of, SearchPlan.of

    def recording_pack(corpus):
        packs.append(pack(corpus))
        return packs[-1]

    def recording_plan(direction, *args):
        built.append(tuple(direction))
        return plan_of(direction, *args)

    monkeypatch.setattr(PackedCorpus, "of", staticmethod(recording_pack))
    monkeypatch.setattr(SearchPlan, "of", staticmethod(recording_plan))
    corpus, _ = random_corpus(4100, min_features=3)
    grid = [-0.5, 0.0, 0.5]
    rss_optimize(corpus, corpus, rotation_spec=((0, 1),), grid=grid)
    closed = packs[0]
    dim = closed.feature_dim
    axes = [repr(axis) for axis in basis_directions(dim)]
    # Axes 1..M-1 once for the whole grid; the tilted axis once per alpha,
    # which at alpha = 0 is axis 0 itself.
    assert len(built) == dim - 1 + len(grid)
    assert 0 < len(closed._axis_plans) <= dim
    monkeypatch.undo()
    for direction, plan in closed._axis_plans.items():
        assert repr(direction) in axes  # no tilted direction is kept
        fresh = SearchPlan.of(
            direction, closed.project(direction), closed.rank, closed.sentence, closed.size
        )
        for field in fields(SearchPlan):
            assert same_arrays(getattr(plan, field.name), getattr(fresh, field.name)), field.name


class TestAdversarialFixture:
    def test_plain_descent_stalls_below_global_optimum(self):
        corpus = adversarial_instance()
        cert = adversarial_certificate()
        packed = PackedCorpus.of(corpus)
        weights, _ = kcd_optimize(corpus, tuple(cert["init_weights"]))
        selection = first_argmax(packed, packed.project(weights))
        assert selection == cert["stalled_selection"]
        stalled = selection_error(packed, selection)
        assert stalled.bleu == cert["stalled_bleu"]
        assert stalled.bleu < cert["grid_best_bleu"]

    def test_rotation_grid_escapes_the_stall(self):
        corpus = adversarial_instance()
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
        closed = adversarial_instance()
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
        opened = build_corpus(nbest, {0: [good]})
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
        corpus = adversarial_instance()
        cert = adversarial_certificate()
        result = rss_optimize(
            corpus, corpus, tuple(cert["init_weights"]), rotation_spec=((0, 1),)
        )
        rows = summary_rows(result).splitlines()
        assert rows[0] == "system\talpha\tclosed_bleu\topen_bleu"
        assert rows[1].startswith("baseline\t\t51.49\t")
        assert rows[2].startswith("best\t+0.2\t100.00\t")

    def test_report_lists_every_grid_point(self):
        corpus = adversarial_instance()
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
