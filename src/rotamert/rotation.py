"""The alpha grid search, which chooses among rotated coordinate systems.

A :class:`~rotamert.descent.CoordinateSystem` belongs to the descent
that sweeps it.  Here each alpha of the grid tilts axis A of the gridded
pair to ``e_A + alpha * e_B``, on top of any fixed rotations.  The grid
search runs the full coordinate descent once per alpha from the same
starting weights, scores every run on the closed (tuning) corpus and on
the open (held-out) corpus, and selects the alpha with the best closed
score.  Open scores are recorded for reporting only; they never
influence the selection.  The points are independent, so after the
first they run in-process as one :func:`~rotamert.descent.kcd_lockstep`
call, whose blocks of descents share each step, or one point per pool
task.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .bleu import format_bleu
from .descent import CoordinateSystem, KcdConfig, KcdTrace, Rotation, initial_weights, kcd_lockstep
from .envelope import PackedCorpus
from .errors import (
    ConfigError,
    DimensionMismatch,
    GridEmpty,
    InvalidGrid,
    as_index,
    as_instance,
    as_items,
    as_real,
)

ZERO_SNAP = 1e-12
# Each grid point is a full descent run.
MAX_GRID_POINTS = 10_001
# Worker processes start only when the first grid point's CPU time times
# the number of points left is at least this: twice the remainder at which
# two workers were measured to first beat one process on wall time, so a
# pool that starts saves clearly more than its start-up (see the README).
POOL_MIN_SECONDS = 0.5


@dataclass(frozen=True)
class AlphaGrid:
    """Inclusive arithmetic grid ``start, start+step, ..., end``; each field is read
    by :func:`~rotamert.errors.as_real` and stored as given."""

    start: float = -1.0
    end: float = 1.0
    step: float = 0.1

    def __post_init__(self) -> None:
        for name in ("start", "end", "step"):
            as_real(getattr(self, name), f"grid {name}", InvalidGrid)
        if not all(math.isfinite(v) for v in (self.start, self.end, self.step)):
            raise InvalidGrid(
                f"grid start, end and step must be finite, "
                f"got {self.start}, {self.end}, {self.step}"
            )
        if not self.step > 0.0:
            raise InvalidGrid(f"grid step must be positive, got {self.step}")
        if self.start > self.end:
            raise InvalidGrid(
                f"grid start {self.start} exceeds end {self.end}"
            )
        span = self.end - self.start
        if not span / self.step <= MAX_GRID_POINTS - 1:
            raise InvalidGrid(
                f"grid from {self.start} to {self.end} in steps of {self.step} "
                f"has more than {MAX_GRID_POINTS} points"
            )
        steps = round(span / self.step)
        if abs(self.start + steps * self.step - self.end) > ZERO_SNAP:
            raise InvalidGrid(
                f"grid span {span} is not a whole number of steps of {self.step}"
            )

    def points(self) -> tuple[float, ...]:
        """Grid values; anything within 1e-12 of 0 or of ``end`` is snapped."""
        count = round((self.end - self.start) / self.step) + 1
        values = []
        for k in range(count):
            v = self.start + k * self.step
            if abs(v) <= ZERO_SNAP:
                v = 0.0
            elif abs(v - self.end) <= ZERO_SNAP:
                v = self.end
            values.append(v)
        return tuple(values)


def format_alpha(alpha: float) -> str:
    """Signed rendering used in reports: ``+0.3``, ``-0.7``, ``+0``."""
    return f"{alpha:+g}"


@dataclass(frozen=True)
class RssRecord:
    """Outcome of one full descent run under one rotation setting."""

    alpha: float
    weights: tuple[float, ...]
    closed_bleu: float
    open_bleu: float
    trace: KcdTrace


@dataclass(frozen=True)
class RssResult:
    records: tuple[RssRecord, ...]
    selected: RssRecord  # one of records: the best closed BLEU
    baseline: RssRecord | None

    @property
    def selected_alpha(self) -> float:
        return self.selected.alpha


def grid_systems(
    dim: int,
    rotation_spec: Sequence[tuple] = (),
    grid: AlphaGrid | Sequence[float] | None = None,
) -> tuple[tuple[float, CoordinateSystem], ...]:
    """The run's grid points: each alpha with its coordinate system, all checked.

    ``rotation_spec`` is read by :func:`~rotamert.errors.as_items`, at most
    ``dim + 1`` items of it if it has no ``len``.  Only the first pair may
    omit its alpha: it is the gridded one, and
    any later pair must fix one.  Each item's parts, and every alpha of
    the grid, are read by :class:`~rotamert.descent.Rotation`, so each
    alpha becomes a ``float``.  The fixed rotations tilt the identity
    once; the gridded pair tilts that base once per alpha, over at most
    ``MAX_GRID_POINTS`` grid values.  Without a gridded pair there is
    exactly one point and ``grid`` is not read: a spec of fixed
    rotations only is labeled by the first alpha, and no rotation at all
    is the unrotated system labeled ``0.0``.
    """
    return _grid(dim, rotation_spec, grid)[0]


def _grid(dim: int, rotation_spec: Sequence[tuple], grid) -> tuple[tuple, bool]:
    """:func:`grid_systems`' points, and whether they have a baseline (fixed rotations alone do not)."""
    gridded: Rotation | None = None  # the gridded pair, at alpha 0.0
    fixed: list[Rotation] = []
    dim = CoordinateSystem(dim).dim  # an integer of at least 1, so a valid spec has at most dim items
    for index, item in enumerate(as_items(rotation_spec, "rotation spec", limit=dim + 1)):
        try:
            from_dim, to_dim, *alpha = item
        except (TypeError, ValueError):  # not a sequence, or too short
            alpha = None
        if alpha is None or len(alpha) > 1:
            raise ConfigError(f"rotation items must be (from, to) or (from, to, alpha), got {item!r}")
        if alpha:
            fixed.append(Rotation(from_dim, to_dim, *alpha))
        elif index != 0:
            raise ConfigError(
                "only the first rotation may omit alpha (it is the "
                "gridded one); fix alpha for the others"
            )
        else:
            gridded = Rotation(from_dim, to_dim, 0.0)
    if gridded is None:
        return ((fixed[0].alpha if fixed else 0.0, CoordinateSystem(dim, tuple(fixed))),), not fixed
    grid = AlphaGrid() if grid is None else grid
    values = grid.points() if isinstance(grid, AlphaGrid) else grid
    try:
        values = tuple(islice(values, MAX_GRID_POINTS + 1))
    except TypeError:
        raise InvalidGrid(
            f"alpha grid must be an AlphaGrid or an iterable of numbers, got {grid!r}"
        ) from None
    if len(values) > MAX_GRID_POINTS:
        raise InvalidGrid(f"alpha grid has more than {MAX_GRID_POINTS} points")
    if not values:
        raise GridEmpty("alpha grid has no points")
    tilts = (Rotation(gridded.from_dim, gridded.to_dim, alpha) for alpha in values)
    return tuple((tilt.alpha, CoordinateSystem(dim, (*fixed, tilt))) for tilt in tilts), True


def _grid_block(task: tuple, points: Sequence[tuple[float, CoordinateSystem]]) -> tuple[RssRecord, ...]:
    """The points' descents by :func:`~rotamert.descent.kcd_lockstep`, each scored on both
    corpora at its final weights as soon as it is yielded, so errors come in a serial run's order."""
    closed, opened, init_w, config = task
    runs = kcd_lockstep(closed, [system for _, system in points], init_w, config)
    return tuple(
        RssRecord(alpha, weights, trace.final_error.bleu, opened.argmax_error(opened.project(weights)).bleu, trace)
        for (alpha, _), (weights, trace) in zip(points, runs)
    )


# The grid task of an rss pool worker, set by its initializer; None elsewhere.
_worker_task: tuple | None = None


def _init_worker(task: tuple) -> None:
    global _worker_task
    _worker_task = task


def _worker_point(point: tuple[float, CoordinateSystem]) -> RssRecord:
    return _grid_block(_worker_task, (point,))[0]


def rss_optimize(
    closed_corpus: PackedCorpus,
    open_corpus: PackedCorpus,
    init_w: Sequence[float] | None = None,
    rotation_spec: Sequence[tuple] = (),
    grid: AlphaGrid | Sequence[float] | None = None,
    config: KcdConfig | None = None,
    *,
    jobs: int = 1,
) -> RssResult:
    """Grid-search rotation strength alpha, one descent run per point.

    Each corpus is a :class:`PackedCorpus`.  Every point's system is
    built by :func:`grid_systems`' gate, which reads ``rotation_spec``
    once, and every run starts from the same ``init_w``.  The first
    point runs in-process; up to ``jobs`` worker processes (an integer
    read by :func:`~rotamert.errors.as_index`, at least 1), but no more
    than the CPU count, run the rest when at least two points remain
    and the first point's CPU time times their number is at least
    ``POOL_MIN_SECONDS``, and otherwise they run in-process too.  A pool
    task is one point.  In-process, the rest are one
    :func:`~rotamert.descent.kcd_lockstep` call, each point scored as it
    is yielded, so the error raised is the one a serial run meets first.
    Every record equals the point's lone descent bit for bit.
    Selection maximizes the closed (tuning) BLEU; ties prefer the
    smallest ``|alpha|``, then the negative one.  The baseline is the
    gridded pair's alpha = 0 record, when the grid contains it, with the
    fixed rotations applied; with no rotation at all, the one point is
    the baseline, and fixed rotations alone have none.
    """
    dim = as_instance(closed_corpus, PackedCorpus, "closed_corpus").feature_dim
    if dim != as_instance(open_corpus, PackedCorpus, "open_corpus").feature_dim:
        raise DimensionMismatch(
            f"closed corpus has {dim} features, open corpus has {open_corpus.feature_dim}"
        )
    if as_index(jobs, "jobs") < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    init_w = initial_weights(init_w, dim)
    points, has_baseline = _grid(dim, rotation_spec, grid)

    task = (closed_corpus, open_corpus, init_w, config)
    started = time.process_time()
    records = _grid_block(task, points[:1])
    rest = points[1:]
    workers = min(jobs, len(rest), os.cpu_count() or 1)
    if workers > 1 and (time.process_time() - started) * len(rest) >= POOL_MIN_SECONDS:
        from concurrent.futures import ProcessPoolExecutor

        # Each worker receives the task once (inherited under fork, pickled
        # once under spawn or forkserver); a grid point sends (alpha, system).
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(task,)) as pool:
            records += tuple(pool.map(_worker_point, rest))
    elif rest:
        records += _grid_block(task, rest)

    best = min(records, key=lambda r: (-r.closed_bleu, abs(r.alpha), r.alpha))
    baseline = next((r for r in records if r.alpha == 0.0), None) if has_baseline else None
    return RssResult(records, best, baseline)


def summary_rows(result: RssResult) -> str:
    """Baseline-versus-best block with closed and open scores (x100)."""
    rows = ["system\talpha\tclosed_bleu\topen_bleu"]
    if result.baseline is not None:
        rows.append(
            f"baseline\t\t{format_bleu(result.baseline.closed_bleu)}"
            f"\t{format_bleu(result.baseline.open_bleu)}"
        )
    selected = result.selected
    rows.append(
        f"best\t{format_alpha(selected.alpha)}"
        f"\t{format_bleu(selected.closed_bleu)}\t{format_bleu(selected.open_bleu)}"
    )
    return "\n".join(rows) + "\n"


def report_tsv(result: RssResult, feature_names: Sequence[str]) -> str:
    """One row per grid point, then the baseline/best summary block."""
    header = "alpha\tclosed_bleu\topen_bleu\t" + "\t".join(feature_names)
    rows = [header]
    for record in result.records:
        weights = "\t".join(repr(w) for w in record.weights)
        rows.append(
            f"{format_alpha(record.alpha)}\t{format_bleu(record.closed_bleu)}"
            f"\t{format_bleu(record.open_bleu)}\t{weights}"
        )
    return "\n".join(rows) + "\n\n" + summary_rows(result)
