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

:func:`kcd_lockstep` runs one descent per system in lockstep, each step
one batched :func:`~rotamert.envelope.line_search` over every running
descent, and :func:`kcd_optimize` is its one-system case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .bleu import ErrorValue, format_bleu
from .envelope import LineSearchResult, PackedCorpus, SearchPlan, line_search
from .errors import ConfigError, DimensionMismatch, InvalidRotation, as_index, as_instance, as_real, as_reals

SWEEP_MODES = ("sequential", "best-direction")

DEFAULT_EPSILON = 0.001
DEFAULT_MAX_ITER = 25


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
) -> list[tuple[tuple[float, ...], KcdTrace]]:
    """Run one descent per system in lockstep; returns each one's final weights and trace.

    Every descent starts from ``init_w`` and each equals a lone descent
    over its system bit for bit, as :func:`kcd_optimize` documents it:
    each keeps its own stop rule and trace.  The descents share each
    step instead: a sequential sweep searches axis ``i`` of every running
    descent in one :func:`line_search` call, and best-direction every
    axis of every running descent.  A descent that stops leaves the
    batch.  ``systems`` is a sequence of :class:`CoordinateSystem` of the
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
    start = LineSearchResult.at(packed, w)
    runs = [_Descent([packed.plan(system.axis(i)) for i in range(dim)], start) for system in systems]
    running = runs

    for iteration in range(1, config.max_iter + 1):
        if config.sweep_mode == "sequential":
            for dim_index in range(dim):
                points = line_search(packed, [run.point for run in running], [run.plans[dim_index] for run in running])
                for run, point in zip(running, points):
                    run.take(iteration, dim_index, point)
        else:  # best-direction
            points = line_search(
                packed, [run.point for run in running for _ in range(dim)], [p for run in running for p in run.plans]
            )
            for k, run in enumerate(running):
                axes = points[k * dim : (k + 1) * dim]
                dim_index = min(range(dim), key=lambda i: (axes[i].error_at_star.error, i))
                run.take(iteration, dim_index, axes[dim_index])
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
