"""Rotated coordinate systems and the alpha grid search over them.

A rotation replaces search direction A by ``e_A + alpha * e_B`` (left
unnormalized), tilting that axis toward axis B.  The grid search runs
the full coordinate descent once per alpha from the same starting
weights, scores every run on the closed (tuning) corpus and on the open
(held-out) corpus, and selects the alpha with the best closed score.
Open scores are recorded for reporting only; they never influence the
selection.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Sequence

from .bleu import format_bleu
from .corpus import TuningCorpus
from .descent import KcdConfig, KcdTrace, basis_directions, initial_weights, kcd_optimize
from .envelope import PackedCorpus
from .errors import ConfigError, DimensionMismatch, GridEmpty, InvalidGrid, InvalidRotation

ZERO_SNAP = 1e-12
# Each grid point is a full descent run.
MAX_GRID_POINTS = 10_001
# Worker processes start only when the first grid point's CPU time times
# the number of points left is at least this: twice the remainder at which
# two workers were measured to first beat one process on wall time, so a
# pool that starts saves clearly more than its start-up (see the README).
POOL_MIN_SECONDS = 0.5


@dataclass(frozen=True)
class Rotation:
    """Tilt axis ``from_dim`` toward ``to_dim`` by ``atan(alpha)`` degrees."""

    from_dim: int
    to_dim: int
    alpha: float

    def __post_init__(self) -> None:
        if self.from_dim == self.to_dim:
            raise InvalidRotation(
                f"rotation maps dimension {self.from_dim} onto itself"
            )
        if self.from_dim < 0 or self.to_dim < 0:
            raise InvalidRotation(
                f"rotation dimensions must be non-negative, "
                f"got ({self.from_dim}, {self.to_dim})"
            )
        if not math.isfinite(self.alpha):
            raise InvalidRotation(f"rotation alpha must be finite, got {self.alpha}")


@dataclass(frozen=True)
class CoordinateSystem:
    """Current search directions plus the rotations that produced them."""

    directions: tuple[tuple[float, ...], ...]
    provenance: tuple[Rotation, ...] = ()


def identity_system(dim: int) -> CoordinateSystem:
    if dim < 1:
        raise ConfigError(f"need at least one dimension, got {dim}")
    return CoordinateSystem(basis_directions(dim))


def apply_rotation(system: CoordinateSystem, rotation: Rotation) -> CoordinateSystem:
    """Return a new system with one axis tilted; each axis rotates at most once.

    The target axis of an earlier rotation may itself be rotated later;
    only re-rotating the same source axis is rejected.
    """
    dim = len(system.directions)
    if rotation.from_dim >= dim or rotation.to_dim >= dim:
        raise InvalidRotation(
            f"rotation ({rotation.from_dim} -> {rotation.to_dim}) out of range "
            f"for {dim} dimensions"
        )
    if any(prev.from_dim == rotation.from_dim for prev in system.provenance):
        raise InvalidRotation(
            f"dimension {rotation.from_dim} has already been rotated"
        )
    e_a = basis_directions(dim)[rotation.from_dim]
    e_b = basis_directions(dim)[rotation.to_dim]
    tilted = tuple(a + rotation.alpha * b for a, b in zip(e_a, e_b))
    directions = list(system.directions)
    directions[rotation.from_dim] = tilted
    return CoordinateSystem(tuple(directions), system.provenance + (rotation,))


@dataclass(frozen=True)
class AlphaGrid:
    """Inclusive arithmetic grid ``start, start+step, ..., end``."""

    start: float = -1.0
    end: float = 1.0
    step: float = 0.1

    def __post_init__(self) -> None:
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


RotationSpecItem = tuple  # (from_dim, to_dim) or (from_dim, to_dim, alpha)


def grid_systems(
    dim: int,
    rotation_spec: Sequence[RotationSpecItem] = (),
    grid: AlphaGrid | Sequence[float] | None = None,
) -> tuple[tuple[float, CoordinateSystem], ...]:
    """The run's grid points: each alpha with its coordinate system, all checked.

    Only the first pair may omit its alpha: it is the gridded one, and
    any later pair must fix one.  The fixed rotations tilt the identity
    once; the gridded pair tilts that base once per alpha.  Without a
    gridded pair there is exactly one point and ``grid`` is not read: a
    spec of fixed rotations only is labeled by the first alpha, and no
    rotation at all is the unrotated system labeled ``0.0``.
    """
    gridded: tuple[int, int] | None = None
    fixed: list[Rotation] = []
    for index, item in enumerate(rotation_spec):
        if isinstance(item, Rotation):
            fixed.append(item)
            continue
        parts = tuple(item)
        if len(parts) == 2:
            if index != 0:
                raise ConfigError(
                    "only the first rotation may omit alpha (it is the "
                    "gridded one); fix alpha for the others"
                )
            gridded = (int(parts[0]), int(parts[1]))
        elif len(parts) == 3:
            fixed.append(Rotation(int(parts[0]), int(parts[1]), float(parts[2])))
        else:
            raise ConfigError(
                f"rotation items must be (from, to) or (from, to, alpha), "
                f"got {item!r}"
            )
    if gridded is None:
        alphas = (fixed[0].alpha if fixed else 0.0,)
    else:
        grid = AlphaGrid() if grid is None else grid
        alphas = grid.points() if isinstance(grid, AlphaGrid) else tuple(grid)
        if not alphas:
            raise GridEmpty("alpha grid has no points")
    base = identity_system(dim)
    for rotation in fixed:
        base = apply_rotation(base, rotation)
    return tuple(
        (alpha, base if gridded is None else apply_rotation(base, Rotation(*gridded, alpha)))
        for alpha in alphas
    )


def _grid_point(task: tuple, point: tuple[float, CoordinateSystem]) -> RssRecord:
    """One alpha's descent, scored on both corpora at its final weights."""
    closed, opened, init_w, config = task
    alpha, system = point
    weights, trace = kcd_optimize(closed, init_w, system, config)
    open_bleu = opened.argmax_error(opened.project(weights)).bleu
    return RssRecord(alpha, weights, trace.final_error.bleu, open_bleu, trace)


# The grid task of an rss pool worker, set by its initializer; None elsewhere.
_worker_task: tuple | None = None


def _init_worker(task: tuple) -> None:
    global _worker_task
    _worker_task = task


def _worker_point(point: tuple[float, CoordinateSystem]) -> RssRecord:
    return _grid_point(_worker_task, point)


def rss_optimize(
    closed_corpus: TuningCorpus,
    open_corpus: TuningCorpus,
    init_w: Sequence[float] | None = None,
    rotation_spec: Sequence[RotationSpecItem] = (),
    grid: AlphaGrid | Sequence[float] | None = None,
    config: KcdConfig | None = None,
    *,
    jobs: int = 1,
) -> RssResult:
    """Grid-search rotation strength alpha, one descent run per point.

    Every point's system is built by :func:`grid_systems` before either
    corpus is packed, and every run starts from the same ``init_w``.
    The first point runs in-process; up to ``jobs`` worker processes, but
    no more than the CPU count, run the rest when at least two points
    remain and the first point's CPU time times their number is at least
    ``POOL_MIN_SECONDS``, and otherwise they run in-process too.  Selection maximizes the closed
    (tuning) BLEU; ties prefer the smallest ``|alpha|``, then the
    negative one.  The alpha = 0 record, when the grid contains it, is
    kept as the unrotated baseline; with no rotation at all, the one
    point is that record.
    """
    if closed_corpus.feature_dim != open_corpus.feature_dim:
        raise DimensionMismatch(
            f"closed corpus has {closed_corpus.feature_dim} features, "
            f"open corpus has {open_corpus.feature_dim}"
        )
    init_w = initial_weights(init_w, closed_corpus.feature_dim)
    points = grid_systems(closed_corpus.feature_dim, rotation_spec, grid)

    task = (PackedCorpus.of(closed_corpus), PackedCorpus.of(open_corpus), init_w, config)
    started = time.process_time()
    records = (_grid_point(task, points[0]),)
    rest = points[1:]
    workers = min(jobs, len(rest), os.cpu_count() or 1)
    if workers > 1 and (time.process_time() - started) * len(rest) >= POOL_MIN_SECONDS:
        from concurrent.futures import ProcessPoolExecutor

        # Each worker receives the task once (inherited under fork, pickled
        # once under spawn or forkserver); a grid point sends (alpha, system).
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(task,)) as pool:
            records += tuple(pool.map(_worker_point, rest))
    else:
        records += tuple(_grid_point(task, point) for point in rest)

    best = min(records, key=lambda r: (-r.closed_bleu, abs(r.alpha), r.alpha))
    baseline = next((r for r in records if r.alpha == 0.0), None)
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
