"""Coordinate descent over feature weights via exact line searches.

Each iteration sweeps the configured search directions, replacing the
weights by the exact line-search optimum along each one.  The loop stops
once two consecutive sweeps change the corpus error by at most
``epsilon`` (checked from the second iteration on), or after
``max_iter`` iterations.  ``best-direction`` mode evaluates every
direction from the current point per iteration and applies only the
most profitable step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .bleu import ErrorValue, format_bleu
from .envelope import LineSearchResult, PackedCorpus, line_search
from .errors import ConfigError, DegenerateDirectionWarning, DimensionMismatch

if TYPE_CHECKING:
    from .corpus import TuningCorpus
    from .rotation import CoordinateSystem

SWEEP_MODES = ("sequential", "best-direction")

DEFAULT_EPSILON = 0.001
DEFAULT_MAX_ITER = 25


@dataclass(frozen=True)
class KcdConfig:
    """Loop controls: stopping tolerance, iteration cap, sweep order."""

    epsilon: float = DEFAULT_EPSILON
    max_iter: int = DEFAULT_MAX_ITER
    sweep_mode: str = SWEEP_MODES[0]

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iter < 1:
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
    """Validated starting weights as floats; uniform ``1/M`` when none are given."""
    if init_w is None:
        return uniform_weights(dim)
    w = tuple(init_w)
    if len(w) != dim:
        raise DimensionMismatch(f"{len(w)} initial weights for {dim} features")
    finite = tuple(float(wi) for wi in w if math.isfinite(wi))
    if len(finite) != dim:
        raise ConfigError(f"initial weights must be finite, got {' '.join(map(repr, w))}")
    return finite


def basis_directions(dim: int) -> tuple[tuple[float, ...], ...]:
    """The M coordinate axes as direction vectors."""
    return tuple(
        tuple(1.0 if j == i else 0.0 for j in range(dim)) for i in range(dim)
    )


def _check_directions(
    directions: Sequence[Sequence[float]], dim: int
) -> list[int]:
    """Validate direction shapes; return indices of usable (nonzero) ones."""
    if len(directions) != dim:
        raise DimensionMismatch(f"{len(directions)} directions for {dim} features")
    active = []
    for i, direction in enumerate(directions):
        if len(direction) != dim:
            raise DimensionMismatch(
                f"direction {i} has length {len(direction)}, expected {dim}"
            )
        if all(c == 0.0 for c in direction):
            warnings.warn(
                f"direction {i} is the zero vector; skipping it",
                DegenerateDirectionWarning,
                stacklevel=3,
            )
        else:
            active.append(i)
    return active


def kcd_optimize(
    corpus: TuningCorpus | PackedCorpus,
    init_w: Sequence[float] | None = None,
    system: CoordinateSystem | None = None,
    config: KcdConfig | None = None,
) -> tuple[tuple[float, ...], KcdTrace]:
    """Run coordinate descent; returns final weights and the step trace.

    Weights default to uniform ``1/M`` and are never normalized.  Each
    applied step takes the weights and error of the exact line search,
    so the trace is non-increasing by construction.  The trace's
    ``final_error`` is the error at the final weights: the last search
    checked it there, or, with no step, the start's.  ``corpus`` is
    packed by :meth:`PackedCorpus.of`, once, and shared by every line search.
    """
    dim = corpus.feature_dim
    w = initial_weights(init_w, dim)
    directions = basis_directions(dim) if system is None else system.directions
    if config is None:
        config = KcdConfig()
    active = _check_directions(directions, dim)
    packed = PackedCorpus.of(corpus)
    # Each search starts from the previous result and reuses its scores.
    point = LineSearchResult.at(packed, w)
    # Each direction's slopes and line order, shared by every search along it.
    plans = {dim_index: packed.plan(directions[dim_index]) for dim_index in active}
    steps: list[StepRecord] = []
    previous_sweep: float | None = None
    iterations = 0

    for iteration in range(1, config.max_iter + 1):
        iterations = iteration
        if config.sweep_mode == "sequential":
            for dim_index in active:
                point = line_search(packed, point, plans[dim_index])
                steps.append(StepRecord(iteration, dim_index, point.gamma_star, point.error_at_star))
        elif active:  # best-direction
            results = {dim_index: line_search(packed, point, plans[dim_index]) for dim_index in active}
            dim_index = min(active, key=lambda i: (results[i].error_at_star.error, i))
            point = results[dim_index]
            steps.append(StepRecord(iteration, dim_index, point.gamma_star, point.error_at_star))
        new_error = point.error_at_star.error
        if previous_sweep is not None and abs(previous_sweep - new_error) <= config.epsilon:
            break
        previous_sweep = new_error

    return point.weights, KcdTrace(tuple(steps), point.weights, iterations, point.error_at_star)
