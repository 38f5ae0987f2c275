"""Exact line search over the piecewise-constant corpus error surface.

Along a ray ``w + gamma * d`` every hypothesis of a sentence scores as a
line ``a + gamma * b`` with intercept ``a = w . h`` and slope
``b = d . h``.  The argmax hypothesis as a function of gamma is the
upper envelope of those lines: a slope-sorted sweep keeps the surviving
lines and the breakpoints where the winner changes.  Merging all
sentences' breakpoints yields intervals on which the corpus-wide
selection is constant, so interval error statistics update by integer
deltas while walking left to right.

The search runs on a :class:`PackedCorpus`: features, sentence offsets
and BLEU statistics as flat arrays.  Projection sums feature columns
left to right from 0.0, so every score is bit-identical to that scalar
loop (a BLAS product would reorder the sums).  :func:`line_search` runs
two kernels through :func:`_intervals`: :func:`_hulls` builds every
sentence's upper envelope in one call, and :func:`_sweep` merges their
breakpoints into intervals and statistics rows.

Two exact shortcuts keep the search cheap.  A numpy prefilter drops
every line with a strictly higher intercept on both sides of its slope
before the Python stack builds the hulls; it only compares floats, and
the tests check that the hulls do not change.  numpy then estimates
every interval's error, and only intervals within ``RESCORE_BOUND`` of
the smallest estimate are scored by the scalar :func:`row_bleu`, which
decides.  The chosen step is checked with one projection of the stepped
weights, so the reported error is always the error those weights get.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bleu import ErrorValue, corpus_stats, row_bleu, row_errors
from .corpus import TuningCorpus
from .errors import DimensionMismatch, InputError

# Breakpoints within this fraction of a group's first breakpoint join
# that group, so the grouping does not depend on the scale of the
# direction (rounding spreads concurrent lines' crossings over a few ulps).
COALESCE_REL = 2**-30

# Intervals whose numpy error estimate (row_errors) lies within this
# of the smallest estimate are rescored by the scalar row_bleu.  The
# estimate is within 1e-12 of row_bleu, far inside half this bound.
RESCORE_BOUND = 1e-9

# Memory cap of the domination prefilter's padded matrix (see
# _may_reach_hull), in float64 cells per line.
PAD_CELLS_PER_LINE = 8


@dataclass(frozen=True)
class LineSearchResult:
    gamma_star: float
    error_at_star: ErrorValue


@dataclass(frozen=True, eq=False)
class PackedCorpus:
    """A corpus as flat arrays, one row per hypothesis in sentence order.

    Sentence ``s`` owns rows ``offsets[s]:offsets[s + 1]`` in rank
    order; ``stats`` holds each row's BLEU statistics row.
    """

    features: np.ndarray  # float64 (N, M)
    offsets: np.ndarray  # int64 (S + 1,)
    stats: np.ndarray  # int64 (N, 10)
    sentence: np.ndarray  # int64 (N,): owning sentence of each row
    rank: np.ndarray  # int64 (N,): row index within its sentence

    @staticmethod
    def of(corpus: TuningCorpus) -> PackedCorpus:
        """Pack ``corpus`` with the statistics rows of :func:`corpus_stats`."""
        counts = [len(entry.hypotheses) for entry in corpus.entries]
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        features = np.array(
            [h.features for entry in corpus.entries for h in entry.hypotheses],
            dtype=np.float64,
        ).reshape(int(offsets[-1]), corpus.feature_dim)
        sentence = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        rank = np.arange(len(sentence), dtype=np.int64) - offsets[sentence]
        return PackedCorpus(features, offsets, corpus_stats(corpus), sentence, rank)

    @property
    def size(self) -> int:
        return len(self.offsets) - 1

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def project(self, v: Sequence[float]) -> np.ndarray:
        """Every row's score ``sum_j features[row, j] * v[j]``, summed left to right.

        Column by column from 0.0, one fixed order; overflowed scores are
        rejected.
        """
        features = self.features
        if len(v) != features.shape[1]:
            raise DimensionMismatch(
                f"vector of length {len(v)} for {features.shape[1]} features"
            )
        acc = np.zeros(len(features))
        with np.errstate(over="ignore", invalid="ignore"):
            for j, vj in enumerate(v):
                acc += features[:, j] * vj
        if not np.isfinite(acc).all():
            raise InputError(
                "feature values times weights overflow: a hypothesis score is not finite"
            )
        return acc

    def first_argmax(self, scores: np.ndarray) -> np.ndarray:
        """Rank of the highest score per sentence; ties keep the lowest rank."""
        starts = self.offsets[:-1]
        best = np.maximum.reduceat(scores, starts)
        ranks = np.where(scores == best[self.sentence], self.rank, len(scores))
        return np.minimum.reduceat(ranks, starts)

    def argmax_error(self, scores: np.ndarray) -> ErrorValue:
        """Corpus error of each sentence's :meth:`first_argmax` row under ``scores``.

        The statistics rows are summed as integers and scored by
        :func:`row_bleu`.
        """
        rows = self.offsets[:-1] + self.first_argmax(scores)
        return row_bleu(self.stats[rows].sum(axis=0).tolist())


Hull = tuple[list[float], list[int]]  # breakpoints, segment labels


def _hull(intercepts: list[float], slopes: list[float], labels: list[int]) -> Hull:
    # One sentence, lines in strictly ascending slope order.
    stack: list[tuple[float, float, int]] = []
    breaks: list[float] = []
    for line in zip(intercepts, slopes, labels):
        a, b, _ = line
        while stack:
            top_a, top_b, _ = stack[-1]
            crossing = (top_a - a) / (b - top_b)
            if breaks and crossing <= breaks[-1]:
                stack.pop()
                breaks.pop()
                continue
            breaks.append(crossing)
            break
        stack.append(line)
    return breaks, [label for _, _, label in stack]


def _may_reach_hull(intercepts: np.ndarray, owner: np.ndarray, size: int) -> np.ndarray:
    """Mask of the lines that no two lines of their sentence dominate.

    Lines come grouped by ``owner`` in strictly ascending slope order.
    A line with a strictly higher intercept on both sides of its slope
    is below one of those two lines at every gamma.  The kept lines are
    each sentence's running intercept maxima from either end, found on
    a -inf padded row per sentence by float comparisons only.  If the
    padding would exceed ``PAD_CELLS_PER_LINE`` cells per line (one
    sentence far longer than the rest), every line is kept.
    """
    starts = np.searchsorted(owner, np.arange(size))
    column = np.arange(len(owner)) - starts[owner]
    width = int(column.max(initial=-1)) + 1
    if size * width > PAD_CELLS_PER_LINE * len(owner):
        return np.ones(len(owner), dtype=bool)
    padded = np.full((size, width), -np.inf)
    padded[owner, column] = intercepts
    from_low = np.maximum.accumulate(padded, axis=1)[owner, column]
    from_high = np.maximum.accumulate(padded[:, ::-1], axis=1)[:, ::-1][owner, column]
    return (from_low == intercepts) | (from_high == intercepts)


def _hulls(
    intercepts: np.ndarray,
    slopes: np.ndarray,
    labels: np.ndarray,
    sentence: np.ndarray,
    size: int,
) -> list[Hull]:
    """Upper envelope of each of ``size`` sentences (rows tagged by ``sentence``).

    Lines sort by ascending slope; slope ties keep the higher intercept
    (it dominates everywhere), full ties the lowest label.  Lines that
    two others of their sentence dominate are dropped before the stack
    runs (:func:`_may_reach_hull`).
    """
    order = np.lexsort((labels, -intercepts, slopes, sentence))
    owner = sentence[order]
    slope = slopes[order]
    first_of_slope = np.ones(len(order), dtype=bool)
    first_of_slope[1:] = (owner[1:] != owner[:-1]) | (slope[1:] != slope[:-1])
    kept = order[first_of_slope]
    kept = kept[_may_reach_hull(intercepts[kept], sentence[kept], size)]
    bounds = np.searchsorted(sentence[kept], np.arange(size + 1)).tolist()
    a = intercepts[kept].tolist()
    b = slopes[kept].tolist()
    k = labels[kept].tolist()
    return [_hull(a[lo:hi], b[lo:hi], k[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _sweep(
    hulls: Sequence[tuple[Sequence[float], Sequence[int]]],
    offsets: Sequence[int],
    stats: np.ndarray,
) -> tuple[list[float], np.ndarray]:
    """Boundaries and per-interval statistics rows of merged sentence hulls.

    ``hulls`` are :func:`_hulls`' output and ``offsets`` each sentence's
    first row.  Events sort stably by gamma; a boundary collects every
    event within ``COALESCE_REL * |g|`` above its first event ``g``, a
    rule that scaling the direction leaves unchanged.  Each interval's
    row is the first interval's row plus the integer cumulative sum of
    the events' incoming-minus-outgoing statistics.
    """
    gammas: list[float] = []
    leave: list[int] = []
    enter: list[int] = []
    first: list[int] = []
    for start, (breaks, segments) in zip(offsets, hulls):
        rows = [start + k for k in segments]
        first.append(rows[0])
        gammas.extend(breaks)
        leave.extend(rows[:-1])
        enter.extend(rows[1:])
    points = np.array(gammas, dtype=np.float64)
    if not np.isfinite(points).all():
        raise InputError("a breakpoint of the search ray is not finite")
    order = np.argsort(points, kind="stable")
    deltas = stats[np.array(enter, dtype=np.intp)] - stats[np.array(leave, dtype=np.intp)]
    initial = stats[np.array(first, dtype=np.intp)].sum(axis=0)
    running = initial + np.cumsum(deltas[order], axis=0)

    ordered = points[order].tolist()
    boundaries: list[float] = []
    ends: list[int] = []
    i = 0
    while i < len(ordered):
        group_start = ordered[i]
        reach = COALESCE_REL * abs(group_start)
        i += 1  # a group always takes its first event
        while i < len(ordered) and ordered[i] - group_start <= reach:
            i += 1
        boundaries.append(group_start)
        ends.append(i - 1)
    rows = np.vstack((initial, running[np.array(ends, dtype=np.intp)]))
    return boundaries, rows


def _intervals(
    packed: PackedCorpus, intercepts: np.ndarray, d: Sequence[float]
) -> tuple[list[Hull], list[float], np.ndarray]:
    """Sentence hulls, boundaries and interval statistics rows along ``d``.

    ``intercepts`` is ``packed.project(w)``.  These are the kernel calls
    of :func:`line_search`.
    """
    hulls = _hulls(intercepts, packed.project(d), packed.rank, packed.sentence, packed.size)
    boundaries, rows = _sweep(hulls, packed.offsets.tolist(), packed.stats)
    return hulls, boundaries, rows


def _interval_bounds(
    boundaries: Sequence[float], index: int
) -> tuple[float, float]:
    lower = boundaries[index - 1] if index > 0 else float("-inf")
    upper = boundaries[index] if index < len(boundaries) else float("inf")
    return lower, upper


def _distance_to_zero(lower: float, upper: float) -> float:
    # 0 for an interval containing gamma = 0, else gap to the nearer edge.
    return max(lower, -upper, 0.0)


def _midpoint(lower: float, upper: float) -> float:
    # Unbounded intervals step 1.0 past their one edge; no edges, no step.
    if lower == float("-inf"):
        return 0.0 if upper == float("inf") else upper - 1.0
    if upper == float("inf"):
        return lower + 1.0
    return (lower + upper) / 2.0


def line_search(packed: PackedCorpus, w: Sequence[float], d: Sequence[float]) -> LineSearchResult:
    """Minimize corpus error along ``w + gamma * d`` exactly.

    Returns the midpoint of the minimum-error interval (offset by 1.0
    into unbounded intervals); interval ties resolve toward the interval
    containing or closest to gamma = 0, then leftmost.  With no
    breakpoints at all the step is 0.  The result never scores worse
    than staying at gamma = 0, and its error is the error at
    ``w + gamma_star * d``.
    """
    intercepts = packed.project(w)
    zero_error = packed.argmax_error(intercepts)
    _, boundaries, rows = _intervals(packed, intercepts, d)
    estimate = row_errors(rows)
    # Only intervals near the smallest estimate can hold the scalar
    # minimum; their scalar errors decide, ties as documented above.
    candidates = np.flatnonzero(estimate <= estimate.min() + RESCORE_BOUND)
    scored = {index: row_bleu(rows[index].tolist()) for index in candidates.tolist()}
    ranked = sorted(
        scored,
        key=lambda index: (
            scored[index].error,
            _distance_to_zero(*_interval_bounds(boundaries, index)),
            index,
        ),
    )
    for index in ranked:
        error = scored[index]
        # Never move to something worse than the current point (0 on a
        # boundary can tie-break to a better mix than either neighbour).
        if zero_error.error < error.error:
            break
        # Crossings near gamma = 0 round by an absolute amount, so an
        # interval can be too narrow for any stepped weights to select
        # its mix; such an interval is passed over for the next one.
        gamma = _midpoint(*_interval_bounds(boundaries, index))
        stepped = [wi + gamma * di for wi, di in zip(w, d)]
        if packed.argmax_error(packed.project(stepped)) == error:
            return LineSearchResult(gamma, error)
    return LineSearchResult(0.0, zero_error)
