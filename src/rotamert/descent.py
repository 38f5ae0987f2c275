"""Coordinate descent over feature weights via exact line searches.

The descent sweeps a :class:`CoordinateSystem`: the identity of ``M``
axes, some of them tilted by a :class:`Rotation` to ``e_A + alpha *
e_B``.  The alpha grid in :mod:`rotamert.rotation` only chooses among
such systems.  Each iteration sweeps the system's axes, replacing the
weights by the exact line-search optimum along each one.  The loop stops
once two consecutive sweeps change the corpus error by at most
``epsilon`` (checked from the second iteration on), or after
``max_iter`` iterations; the trace records which (``KcdTrace.stopped``).
``best-direction`` mode evaluates every axis from the current point per
iteration and applies only the most profitable step.

:func:`kcd_lockstep` runs one descent per system, blocks of them in
lockstep sharing batched :func:`~rotamert.envelope.line_search` calls,
replays a failing block serially and yields each result as it has it;
:func:`kcd_optimize` is its one-system case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .bleu import ErrorValue, format_bleu
from .envelope import LineSearchResult, PackedCorpus, SearchPlan, line_search
from .errors import (
    ConfigError, DimensionMismatch, InvalidRotation, RotamertError, as_index, as_instance, as_real, as_reals
)

SWEEP_MODES = ("sequential", "best-direction")

DEFAULT_EPSILON = 0.001
DEFAULT_MAX_ITER = 25
# A lockstep block holds max(1, BLOCK_ROWS // rows) descents and a line_search call as
# many searches, so a call scores at most this many rows unless one search alone has more.
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class Rotation:
    """Tilt axis ``from_dim`` toward ``to_dim`` by ``atan(alpha)`` degrees.

    The dimensions are read by :func:`~rotamert.errors.as_index` and alpha
    by :func:`~rotamert.errors.as_real`, and stored as int, int and float.
    """

    from_dim: int
    to_dim: int
    alpha: float

    def __post_init__(self) -> None:
        for name, read in (("from_dim", as_index), ("to_dim", as_index), ("alpha", as_real)):
            object.__setattr__(self, name, read(getattr(self, name), f"rotation {name}", InvalidRotation))
        if self.from_dim == self.to_dim:
            raise InvalidRotation(f"rotation maps dimension {self.from_dim} onto itself")
        if self.from_dim < 0 or self.to_dim < 0:
            raise InvalidRotation(
                f"rotation dimensions must be non-negative, "
                f"got ({self.from_dim}, {self.to_dim})"
            )
        if not math.isfinite(self.alpha):
            raise InvalidRotation(f"rotation alpha must be finite, got {self.alpha}")


@dataclass(frozen=True)
class CoordinateSystem:
    """The identity of ``dim`` axes, each rotation tilting one axis once.

    A rotation ``(A, B, alpha)`` replaces axis A by ``e_A + alpha * e_B``
    (B may itself be tilted by another).  Only the rotations are stored,
    so a system costs the same at any ``dim``.  ``dim`` is read by
    :func:`~rotamert.errors.as_index` and stored as an int; ``provenance``
    is a tuple of :class:`Rotation`.
    """

    dim: int
    provenance: tuple[Rotation, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", as_index(self.dim, "dim"))
        if self.dim < 1:
            raise ConfigError(f"need at least one dimension, got {self.dim}")
        if not isinstance(self.provenance, tuple) or not all(isinstance(r, Rotation) for r in self.provenance):
            raise InvalidRotation(f"provenance must be a tuple of Rotations, got {self.provenance!r}")
        tilted = set()
        for rotation in self.provenance:
            if rotation.from_dim >= self.dim or rotation.to_dim >= self.dim:
                raise InvalidRotation(
                    f"rotation ({rotation.from_dim} -> {rotation.to_dim}) out of range "
                    f"for {self.dim} dimensions"
                )
            if rotation.from_dim in tilted:
                raise InvalidRotation(f"dimension {rotation.from_dim} has already been rotated")
            tilted.add(rotation.from_dim)

    def axis(self, i: int) -> tuple[tuple[int, float], ...]:
        """Axis ``i`` as ``(index, coefficient)`` pairs; every unlisted entry is 0.0.

        The coefficients are the bits of the dense vector: a tilted axis
        holds ``0.0 + alpha`` at B, so ``alpha = -0.0`` gives ``+0.0``.
        """
        for rotation in self.provenance:
            if rotation.from_dim == i:
                return ((i, 1.0), (rotation.to_dim, 0.0 + rotation.alpha))
        return ((i, 1.0),)


@dataclass(frozen=True)
class KcdConfig:
    """Loop controls: stopping tolerance, iteration cap, sweep order; the first two are
    read by :func:`~rotamert.errors.as_real` and :func:`~rotamert.errors.as_index` and
    stored as given."""

    epsilon: float = DEFAULT_EPSILON
    max_iter: int = DEFAULT_MAX_ITER
    sweep_mode: str = SWEEP_MODES[0]

    def __post_init__(self) -> None:
        if not 0.0 < as_real(self.epsilon, "epsilon") < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if as_index(self.max_iter, "max_iter") < 1:
            raise ConfigError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.sweep_mode not in SWEEP_MODES:
            raise ConfigError(
                f"sweep_mode must be one of {SWEEP_MODES}, got {self.sweep_mode!r}"
            )


@dataclass(frozen=True)
class StepRecord:
    """One applied line-search step."""

    iteration: int
    dimension: int
    gamma: float
    error: ErrorValue


@dataclass(frozen=True)
class KcdTrace:
    steps: tuple[StepRecord, ...]
    final_weights: tuple[float, ...]
    iterations: int
    final_error: ErrorValue  # the error at final_weights
    stopped: str  # "epsilon" or "max_iter": why the loop ended

    def to_tsv(self) -> str:
        rows = ["iter\tdim\tgamma\terror\tbleu"]
        for step in self.steps:
            rows.append(
                f"{step.iteration}\t{step.dimension}\t{step.gamma!r}"
                f"\t{step.error.error!r}\t{format_bleu(step.error.bleu)}"
            )
        return "\n".join(rows) + "\n"


def uniform_weights(dim: int) -> tuple[float, ...]:
    return (1.0 / dim,) * dim


def initial_weights(init_w: Sequence[float] | None, dim: int) -> tuple[float, ...]:
    """Starting weights read by :func:`~rotamert.errors.as_reals`, each finite;
    uniform ``1/M`` when none are given."""
    if init_w is None:
        return uniform_weights(dim)
    w = as_reals(init_w, dim, "initial weights")
    if not all(map(math.isfinite, w)):
        raise ConfigError(f"initial weights must be finite, got {' '.join(map(repr, w))}")
    return w


def kcd_optimize(
    corpus: PackedCorpus,
    init_w: Sequence[float] | None = None,
    system: CoordinateSystem | None = None,
    config: KcdConfig | None = None,
) -> tuple[tuple[float, ...], KcdTrace]:
    """Run coordinate descent; returns final weights and the step trace.

    Weights default to uniform ``1/M`` and are never normalized.  Each
    applied step takes the weights and error of the exact line search,
    so the trace is non-increasing by construction.  The trace's
    ``final_error`` is the error at the final weights: the last search
    checked it there, or, with no step, the start's.  ``corpus`` is a
    :class:`PackedCorpus`, shared by every line search; ``system`` (the
    identity when None) and ``config`` are of their type or None.  This
    is :func:`kcd_lockstep` of the one system.
    """
    packed = as_instance(corpus, PackedCorpus, "corpus")
    if system is None:
        system = CoordinateSystem(packed.feature_dim)
    ((weights, trace),) = kcd_lockstep(packed, [system], init_w, config)
    return weights, trace


@dataclass(eq=False)
class _Descent:
    """One descent of a lockstep run: its axes' plans, its point and its trace so far."""

    plans: list[SearchPlan]  # each axis' slopes and line order, shared by every search along it
    point: LineSearchResult  # each search starts from the previous result and reuses its scores
    steps: list[StepRecord] = field(default_factory=list)
    iterations: int = 0
    previous: float | None = None  # the error after the previous sweep
    stopped: str | None = None

    def take(self, iteration: int, dim_index: int, point: LineSearchResult) -> None:
        self.point = point
        self.steps.append(StepRecord(iteration, dim_index, point.gamma_star, point.error_at_star))

    def trace(self) -> KcdTrace:
        weights, error = self.point.weights, self.point.error_at_star
        return KcdTrace(tuple(self.steps), weights, self.iterations, error, self.stopped or "max_iter")


def kcd_lockstep(
    corpus: PackedCorpus,
    systems: Sequence[CoordinateSystem],
    init_w: Sequence[float] | None = None,
    config: KcdConfig | None = None,
) -> Iterator[tuple[tuple[float, ...], KcdTrace]]:
    """Run one descent per system; yields each one's final weights and trace in turn.

    Every descent starts from ``init_w`` and equals a lone descent over
    its system bit for bit, as :func:`kcd_optimize` documents it, stop
    rule and trace included.  Blocks of ``size = max(1, BLOCK_ROWS //
    rows)`` descents run in lockstep, each step's searches in
    :func:`line_search` calls of at most ``size``.  A block that raises a
    :class:`RotamertError` runs again serially (one descent at a time,
    one search per call), so the error is the one a loop of
    :func:`kcd_optimize` meets first; at ``size`` 1 it raises at once.
    Each result is yielded once its block, or its serial rerun, has it,
    so a caller that uses it before asking for the next meets its own
    errors in a serial run's order too.  The arguments are checked at the
    call; ``systems`` is a sequence of :class:`CoordinateSystem` of the
    corpus' dimension.
    """
    packed = as_instance(corpus, PackedCorpus, "corpus")
    dim = packed.feature_dim
    w = initial_weights(init_w, dim)
    try:
        systems = tuple(systems)
    except TypeError:
        raise ConfigError(f"systems must be a sequence of CoordinateSystems, got {systems!r}") from None
    for system in systems:
        if as_instance(system, CoordinateSystem, "system").dim != dim:
            raise DimensionMismatch(f"coordinate system of {system.dim} dimensions for {dim} features")
    config = KcdConfig() if config is None else as_instance(config, KcdConfig, "config")
    return _blocks(packed, systems, w, config)


def _blocks(packed: PackedCorpus, systems: tuple, w: tuple[float, ...], config: KcdConfig) -> Iterator[tuple]:
    """:func:`kcd_lockstep`'s results, block by block, or descent by descent in a serial rerun."""
    size = max(1, BLOCK_ROWS // len(packed.stats))
    for i in range(0, len(systems), size):
        block = systems[i : i + size]
        try:
            results = _lockstep(packed, block, w, config, size)
        except RotamertError:
            if size == 1:
                raise
            results = (result for system in block for result in _lockstep(packed, (system,), w, config, 1))
        yield from results


def _lockstep(
    packed: PackedCorpus, systems: Sequence[CoordinateSystem], w: tuple[float, ...], config: KcdConfig, size: int
) -> list[tuple[tuple[float, ...], KcdTrace]]:
    """The descents in lockstep, each phase's searches in calls of at most ``size``: a sequential sweep
    is M phases of one axis, best-direction one of all M, each taking its lowest-error axis, ties to the lowest.
    Only the weights and traces are returned, so a block's plans and scores go with it."""
    dim = packed.feature_dim
    start = LineSearchResult.at(packed, w)
    runs = [_Descent([packed.plan(system.axis(i)) for i in range(dim)], start) for system in systems]
    phases = [(i,) for i in range(dim)] if config.sweep_mode == "sequential" else [tuple(range(dim))]
    running = runs

    for iteration in range(1, config.max_iter + 1):
        for axes in phases:
            searches = [(run, i) for run in running for i in axes]
            points: list[LineSearchResult] = []
            for k in range(0, len(searches), size):
                chunk = searches[k : k + size]
                points += line_search(packed, [run.point for run, _ in chunk], [run.plans[i] for run, i in chunk])
            for k, run in enumerate(running):
                found = points[k * len(axes) : (k + 1) * len(axes)]
                best = min(range(len(axes)), key=lambda j: (found[j].error_at_star.error, j))
                run.take(iteration, axes[best], found[best])
        for run in running:
            run.iterations = iteration
            new_error = run.point.error_at_star.error
            if run.previous is not None and abs(run.previous - new_error) <= config.epsilon:
                run.stopped = "epsilon"
            run.previous = new_error
        running = [run for run in running if run.stopped is None]
        if not running:
            break

    return [(run.point.weights, run.trace()) for run in runs]
