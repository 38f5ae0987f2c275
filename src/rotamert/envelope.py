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
loop (a BLAS product would reorder the sums).  A :class:`SearchPlan`
holds what every search along one direction shares: the slopes and the
rows sorted by (sentence, slope, rank), so a search only picks the
highest intercept of each run of equal slope.  That pick and the 1-best
of each sentence follow one rule, :func:`_first_max`: the highest value
wins and ties go to the lowest rank.  :func:`line_search` runs two kernels
through :func:`_intervals`: :func:`_hulls` builds every sentence's upper
envelope in one call, and :func:`_sweep` merges their breakpoints into
intervals and statistics rows.

Two exact shortcuts keep the search cheap.  A numpy prefilter drops
every line with a strictly higher intercept on both sides of its slope
before the Python stack builds the hulls; it only compares floats, and
the tests check that the hulls do not change.  numpy then estimates
every interval's error, and only intervals within ``RESCORE_BOUND`` of
the smallest estimate are scored by the scalar :func:`row_bleu`, which
decides.  The chosen step is checked with one projection of the stepped
weights, which the search returns, so the reported error is always the
error of the weights the caller adopts.
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
    weights: tuple[float, ...]  # w + gamma_star * d, whose error is error_at_star


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

    def plan(self, d: Sequence[float]) -> SearchPlan:
        """The :class:`SearchPlan` of every line search along ``d``."""
        return SearchPlan.of(d, self.project(d), self.rank, self.sentence, self.size)

    def first_argmax(self, scores: np.ndarray) -> np.ndarray:
        """Rank of the highest score per sentence; ties keep the lowest rank."""
        starts = self.offsets[:-1]
        return _first_max(scores, starts, self.sentence) - starts

    def argmax_error(self, scores: np.ndarray) -> ErrorValue:
        """Corpus error of each sentence's :meth:`first_argmax` row under ``scores``.

        The statistics rows are summed as integers and scored by
        :func:`row_bleu`.
        """
        rows = _first_max(scores, self.offsets[:-1], self.sentence)
        return row_bleu(self.stats[rows].sum(axis=0).tolist())


def _first_max(values: np.ndarray, starts: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Position of the first largest value of each group.

    Groups are consecutive runs of positions beginning at ``starts``;
    ``group`` holds each position's group.  ``values`` must not be NaN.
    """
    best = np.maximum.reduceat(values, starts)
    hits = np.flatnonzero(values == best[group])
    return hits[np.searchsorted(hits, starts)]


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
    # Flat cell of each line, and of its mirror in the reversed row.
    cell = owner * width + column
    mirror = cell + (width - 1 - 2 * column)
    padded = np.full((size, width), -np.inf)
    padded.ravel()[cell] = intercepts
    from_low = np.maximum.accumulate(padded, axis=1).ravel()[cell]
    from_high = np.maximum.accumulate(padded[:, ::-1], axis=1).ravel()[mirror]
    return (from_low == intercepts) | (from_high == intercepts)


@dataclass(frozen=True, eq=False)
class SearchPlan:
    """What every line search along one direction shares.

    ``slopes`` are the lines' slopes along ``direction`` and ``base``
    orders the rows by (sentence, slope, label).  Rows of a run of equal
    (sentence, slope) differ only in intercept, so a search keeps one
    row per run (:meth:`heads`).  ``starts`` holds each run's first
    position and ``run`` each position's run; both are empty when every
    run is one row.
    """

    direction: tuple[float, ...]
    slopes: np.ndarray  # float64 (N,)
    labels: np.ndarray  # int64 (N,)
    sentence: np.ndarray  # int64 (N,)
    size: int
    base: np.ndarray  # int64 (N,)
    starts: np.ndarray  # int64 (R,), or (0,) if R == N
    run: np.ndarray  # int64 (N,), or (0,) if R == N

    @staticmethod
    def of(
        direction: Sequence[float],
        slopes: np.ndarray,
        labels: np.ndarray,
        sentence: np.ndarray,
        size: int,
    ) -> SearchPlan:
        base = np.lexsort((labels, slopes, sentence))
        owner = sentence[base]
        slope = slopes[base]
        first = np.ones(len(base), dtype=bool)
        first[1:] = (owner[1:] != owner[:-1]) | (slope[1:] != slope[:-1])
        if first.all():
            starts = run = np.zeros(0, dtype=np.int64)
        else:
            starts = np.flatnonzero(first)
            run = np.cumsum(first) - 1
        return SearchPlan(tuple(direction), slopes, labels, sentence, size, base, starts, run)

    def heads(self, intercepts: np.ndarray) -> np.ndarray:
        """The row of each run with the highest intercept, ties to the lowest label."""
        if not len(self.run):
            return self.base
        return self.base[_first_max(intercepts[self.base], self.starts, self.run)]


def _hulls(intercepts: np.ndarray, plan: SearchPlan) -> list[Hull]:
    """Upper envelope of each sentence of ``plan`` at ``intercepts``.

    Lines sort by ascending slope; slope ties keep the higher intercept
    (it dominates everywhere), full ties the lowest label.  Lines that
    two others of their sentence dominate are dropped before the stack
    runs (:func:`_may_reach_hull`).
    """
    kept = plan.heads(intercepts)
    sentence = plan.sentence
    kept = kept[_may_reach_hull(intercepts[kept], sentence[kept], plan.size)]
    bounds = np.searchsorted(sentence[kept], np.arange(plan.size + 1)).tolist()
    a = intercepts[kept].tolist()
    b = plan.slopes[kept].tolist()
    k = plan.labels[kept].tolist()
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
    packed: PackedCorpus, intercepts: np.ndarray, plan: SearchPlan
) -> tuple[list[Hull], list[float], np.ndarray]:
    """Sentence hulls, boundaries and interval statistics rows along ``plan``.

    ``intercepts`` is ``packed.project(w)``.  These are the kernel calls
    of :func:`line_search`.
    """
    hulls = _hulls(intercepts, plan)
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


def line_search(
    packed: PackedCorpus, w: Sequence[float], d: Sequence[float] | SearchPlan
) -> LineSearchResult:
    """Minimize corpus error along ``w + gamma * d`` exactly.

    ``d`` is a direction or its ``packed.plan(d)``, which a caller
    searching one direction many times builds once.

    Returns the midpoint of the minimum-error interval (offset by 1.0
    into unbounded intervals); interval ties resolve toward the interval
    containing or closest to gamma = 0, then leftmost.  With no
    breakpoints at all the step is 0.  The result never scores worse
    than staying at gamma = 0.  Its ``weights`` are ``w + gamma_star *
    d``, built once here, and its error is the error at those weights.
    """
    plan = d if isinstance(d, SearchPlan) else packed.plan(d)
    if plan.sentence is not packed.sentence:
        raise ValueError("the search plan was made for another packed corpus")
    intercepts = packed.project(w)
    zero_error = packed.argmax_error(intercepts)
    _, boundaries, rows = _intervals(packed, intercepts, plan)
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

    def stepped(gamma: float) -> tuple[float, ...]:
        # Also at gamma = 0: w + 0.0 * d turns a -0.0 weight into 0.0.
        return tuple(wi + gamma * di for wi, di in zip(w, plan.direction))

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
        weights = stepped(gamma)
        if packed.argmax_error(packed.project(weights)) == error:
            return LineSearchResult(gamma, error, weights)
    return LineSearchResult(0.0, zero_error, stepped(0.0))
