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
and BLEU statistics as flat arrays.  Projection sums feature columns in
the fixed order of :func:`dot`, so every score is bit-identical to the
scalar definition (a BLAS product would reorder the sums).  The
per-sentence hull and the interval sweep are kernels shared by the
public :func:`upper_envelope` / :func:`sweep_intervals` and by
:func:`line_search`.

Two exact shortcuts keep the search cheap.  A numpy prefilter drops
every line with a strictly higher intercept on both sides of its slope
before the Python stack builds the hulls; it only compares floats, and
the tests check that the hulls do not change.  numpy then estimates
every interval's error, and only intervals within ``RESCORE_BOUND`` of
the smallest estimate are scored by the scalar :func:`row_bleu`, which
decides; the public :func:`sweep_intervals` still scores every interval
that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bleu import ErrorValue, corpus_stats, row_bleu, row_errors
from .corpus import SentenceEntry, TuningCorpus
from .errors import DimensionMismatch, InputError

COALESCE_TOL = 1e-9

# Intervals whose numpy error estimate (row_errors) lies within this
# of the smallest estimate are rescored by the scalar row_bleu.  The
# estimate is within 1e-12 of row_bleu, far inside half this bound.
RESCORE_BOUND = 1e-9

# Memory cap of the domination prefilter's padded matrix (see
# _may_reach_hull), in float64 cells per line.
PAD_CELLS_PER_LINE = 8


@dataclass(frozen=True)
class ScoreLine:
    """Score of one hypothesis along the search ray."""

    intercept: float
    slope: float
    hyp_index: int


@dataclass(frozen=True)
class SentenceEnvelope:
    """Upper envelope of one sentence: B breakpoints, B+1 winning segments."""

    breakpoints: tuple[float, ...]
    segments: tuple[int, ...]


@dataclass(frozen=True)
class IntervalSweep:
    """Corpus-level intervals with their summed statistics rows and errors."""

    boundaries: tuple[float, ...]
    interval_stats: tuple[tuple[int, ...], ...]  # statistics rows
    interval_error: tuple[ErrorValue, ...]


@dataclass(frozen=True)
class LineSearchResult:
    gamma_star: float
    error_at_star: ErrorValue
    chosen_interval: tuple[float, float]


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
        """Every row's ``dot(v, features)``, bit for bit, as one array."""
        return _project(self.features, v)

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


def dot(u: Sequence[float], v: Sequence[float]) -> float:
    """Fixed-order dot product: the summation order every score follows."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _project(features: np.ndarray, v: Sequence[float]) -> np.ndarray:
    # Column by column from 0.0, as dot() sums; rejects overflowed scores.
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


def project_lines(
    entry: SentenceEntry, w: Sequence[float], d: Sequence[float]
) -> list[ScoreLine]:
    """Turn each hypothesis into its score line along ``w + gamma * d``."""
    features = np.array([h.features for h in entry.hypotheses], dtype=np.float64)
    intercepts = _project(features, w).tolist()
    slopes = _project(features, d).tolist()
    return [ScoreLine(a, b, i) for i, (a, b) in enumerate(zip(intercepts, slopes))]


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


def upper_envelope(lines: Sequence[ScoreLine]) -> SentenceEnvelope:
    """Sweep lines by ascending slope, keeping the upper envelope.

    Slope ties keep the higher intercept (it dominates everywhere); full
    ties keep the lowest hypothesis index.  A line is dropped when the
    breakpoint where it would take over does not exceed the previous
    one.
    """
    intercepts = np.array([l.intercept for l in lines], dtype=np.float64)
    slopes = np.array([l.slope for l in lines], dtype=np.float64)
    labels = np.array([l.hyp_index for l in lines], dtype=np.int64)
    sentence = np.zeros(len(lines), dtype=np.int64)
    ((breaks, segments),) = _hulls(intercepts, slopes, labels, sentence, 1)
    return SentenceEnvelope(tuple(breaks), tuple(segments))


def _sweep(
    hulls: Sequence[tuple[Sequence[float], Sequence[int]]],
    offsets: Sequence[int],
    stats: np.ndarray,
) -> tuple[list[float], np.ndarray]:
    """Boundaries and per-interval statistics rows of merged sentence hulls.

    Events sort stably by gamma; a boundary collects every event within
    ``COALESCE_TOL`` of its first one.  Each interval's row is the first
    interval's row plus the integer cumulative sum of the events'
    incoming-minus-outgoing statistics.
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
        i += 1  # a group always takes its first event
        while i < len(ordered) and ordered[i] - group_start <= COALESCE_TOL:
            i += 1
        boundaries.append(group_start)
        ends.append(i - 1)
    rows = np.vstack((initial, running[np.array(ends, dtype=np.intp)]))
    return boundaries, rows


def sweep_intervals(
    packed: PackedCorpus, envelopes: Sequence[SentenceEnvelope]
) -> IntervalSweep:
    """Merge per-sentence breakpoints and walk intervals by stat deltas.

    Boundaries closer than ``COALESCE_TOL`` collapse into one; each
    boundary applies every affected sentence's outgoing/incoming
    hypothesis swap to the running statistics row.
    """
    if len(envelopes) != packed.size:
        raise DimensionMismatch(f"{len(envelopes)} envelopes for {packed.size} sentences")
    boundaries, rows = _sweep(
        [(env.breakpoints, env.segments) for env in envelopes],
        packed.offsets.tolist(),
        packed.stats,
    )
    interval_rows = rows.tolist()
    return IntervalSweep(
        tuple(boundaries),
        tuple(map(tuple, interval_rows)),
        tuple(row_bleu(row) for row in interval_rows),
    )


def _interval_bounds(
    boundaries: Sequence[float], index: int
) -> tuple[float, float]:
    lower = boundaries[index - 1] if index > 0 else float("-inf")
    upper = boundaries[index] if index < len(boundaries) else float("inf")
    return lower, upper


def _distance_to_zero(lower: float, upper: float) -> float:
    # 0 for an interval containing gamma = 0, else gap to the nearer edge.
    return max(lower, -upper, 0.0)


def line_search(packed: PackedCorpus, w: Sequence[float], d: Sequence[float]) -> LineSearchResult:
    """Minimize corpus error along ``w + gamma * d`` exactly.

    Returns the midpoint
    of the minimum-error interval (offset by 1.0 into unbounded
    intervals); interval ties resolve toward the interval containing or
    closest to gamma = 0, then leftmost.  With no breakpoints at all the
    step is 0.  The result never scores worse than staying at gamma = 0.
    """
    intercepts = packed.project(w)
    zero_error = packed.argmax_error(intercepts)
    hulls = _hulls(intercepts, packed.project(d), packed.rank, packed.sentence, packed.size)
    boundaries, rows = _sweep(hulls, packed.offsets.tolist(), packed.stats)
    estimate = row_errors(rows)
    # Only intervals near the smallest estimate can hold the scalar
    # minimum; their scalar errors decide, ties as documented above.
    candidates = np.flatnonzero(estimate <= estimate.min() + RESCORE_BOUND)
    scored = {index: row_bleu(rows[index].tolist()) for index in candidates.tolist()}
    best_index = min(
        scored,
        key=lambda index: (
            scored[index].error,
            _distance_to_zero(*_interval_bounds(boundaries, index)),
            index,
        ),
    )
    lower, upper = _interval_bounds(boundaries, best_index)
    error_star = scored[best_index]

    if not boundaries:
        gamma = 0.0
    elif lower == float("-inf"):
        gamma = upper - 1.0
    elif upper == float("inf"):
        gamma = lower + 1.0
    else:
        gamma = (lower + upper) / 2.0

    # Never move to something worse than the current point.  The sweep
    # already contains the gamma = 0 interval, so this only matters when
    # 0 sits exactly on a boundary and tie-breaking picks a different
    # hypothesis mix than either neighboring interval.
    if zero_error.error < error_star.error:
        zero_index = 0
        for index in range(len(rows)):
            low, up = _interval_bounds(boundaries, index)
            if low <= 0.0 <= up:
                zero_index = index
                break
        return LineSearchResult(
            0.0, zero_error, _interval_bounds(boundaries, zero_index)
        )
    return LineSearchResult(gamma, error_star, (lower, upper))
