"""Exact line search over the piecewise-constant corpus error surface.

Along a ray ``w + gamma * d`` every hypothesis of a sentence scores as a
line ``a + gamma * b`` with intercept ``a = w . h`` and slope
``b = d . h``.  The argmax hypothesis as a function of gamma is the
upper envelope of those lines: a slope-sorted sweep keeps the surviving
lines and the breakpoints where the winner changes.  Merging all
sentences' breakpoints yields intervals on which the corpus-wide
selection is constant, so interval error statistics update by integer
deltas while walking left to right.

The search runs on a :class:`PackedCorpus` of flat arrays.  Projection
sums feature columns left to right from 0.0, so every score is
bit-identical to that scalar loop (a BLAS product would reorder the
sums).  A :class:`SearchPlan` holds what every search along one
direction shares, and the pack keeps the coordinate axes' plans for
every descent over it.  :func:`_hulls` builds all sentences' envelopes
in one stack loop over flat arrays; :func:`_sweep` merges their
breakpoints with numpy, looping only when some of them group.  Every
winner is picked by one rule, :func:`_first_max`: the highest value,
ties to the lowest rank.

Two exact shortcuts keep the search cheap: a numpy prefilter drops the
lines two others dominate before the stack runs, and only intervals
within ``RESCORE_BOUND`` of the smallest numpy error estimate are scored
by the scalar :func:`row_bleu`, which decides.  The chosen step is
checked with one projection of the stepped weights.  The result carries
those weights and scores, and a search that starts from it reuses both,
so each point is projected once and the reported error is always the
error of the weights adopted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bleu import ErrorValue, row_bleu, row_errors, stats_blocks
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

Hulls = tuple[np.ndarray, np.ndarray, np.ndarray]  # breakpoints, segment rows, counts


@dataclass(frozen=True)
class LineSearchResult:
    gamma_star: float
    error_at_star: ErrorValue
    weights: tuple[float, ...]  # w + gamma_star * d, whose error is error_at_star
    # packed.project(weights): a search that starts here reuses it.
    scores: np.ndarray = field(repr=False, compare=False)

    @staticmethod
    def at(packed: PackedCorpus, w: Sequence[float]) -> LineSearchResult:
        """The zero step at ``w``: the error and scores of ``w`` on ``packed``."""
        scores = packed.project(w)
        return LineSearchResult(0.0, packed.argmax_error(scores), tuple(w), scores)


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
    # The plan of each coordinate axis (float 1.0 and +0.0 entries), built once.
    _axis_plans: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def of(corpus: TuningCorpus) -> PackedCorpus:
        """Pack ``corpus``: the one place a :class:`TuningCorpus` becomes arrays."""
        counts = [len(entry.hypotheses) for entry in corpus.entries]
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        features = np.array(
            [h.features for entry in corpus.entries for h in entry.hypotheses],
            dtype=np.float64,
        ).reshape(int(offsets[-1]), corpus.feature_dim)
        sentences = (([h.tokens for h in entry.hypotheses], entry.references) for entry in corpus.entries)
        stats = np.concatenate([np.zeros((0, 10), dtype=np.int64), *stats_blocks(sentences)])
        sentence = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        rank = np.arange(len(sentence), dtype=np.int64) - offsets[sentence]
        return PackedCorpus(features, offsets, stats, sentence, rank)

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
        """The :class:`SearchPlan` along ``d``; a coordinate axis' plan is kept (at most M)."""
        d = tuple(d)
        axis = sorted(map(repr, d)) == ["0.0"] * (len(d) - 1) + ["1.0"]
        plan = self._axis_plans.get(d) if axis else None
        if plan is None:
            plan = SearchPlan.of(d, self.project(d), self.rank, self.sentence, self.size)
            if axis:
                self._axis_plans[d] = plan
        return plan

    def argmax_error(self, scores: np.ndarray) -> ErrorValue:
        """Corpus error of each sentence's highest-scoring row, ties to the lowest rank.

        The statistics rows are summed as integers and scored by :func:`row_bleu`.
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


def _may_reach_hull(intercepts: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Mask of the lines that no two lines of their sentence dominate.

    Lines come grouped by ascending sentence ``owner``, each sentence in
    strictly ascending slope order.  A line with a strictly higher
    intercept on both sides of its slope is below one of those two lines
    at every gamma.  The kept lines are each sentence's running intercept
    maxima from either end.  numpy orders complex numbers by real part,
    then imaginary part, so one running maximum of ``owner + 1j *
    intercept`` over all lines restarts at each sentence, and so does one
    of ``-owner + 1j * intercept`` run from the high end.  Their
    imaginary parts are compared with the intercepts as floats, so
    ``-0.0`` ties ``0.0``.  Memory is a few arrays of one value per line.
    """
    keyed = np.empty(len(intercepts), dtype=np.complex128)
    keyed.real = owner
    keyed.imag = intercepts
    keep = np.maximum.accumulate(keyed).imag == intercepts
    keyed.real = -owner
    keep |= np.maximum.accumulate(keyed[::-1]).imag[::-1] == intercepts
    return keep


@dataclass(frozen=True, eq=False)
class SearchPlan:
    """What every line search along one direction shares.

    ``slopes`` are the lines' slopes along ``direction`` and ``base``
    orders the rows by (sentence, slope, label).  Rows of a run of equal
    (sentence, slope) differ only in intercept, so a search keeps one
    row per run (:meth:`heads`).  ``starts`` holds each run's first
    position and ``run`` each position's run; both are empty when every
    run is one row.  The heads come in (sentence, slope) order, which is
    all that :func:`_may_reach_hull` needs of the plan.
    """

    direction: tuple[float, ...]
    slopes: np.ndarray  # float64 (N,)
    sentence: np.ndarray  # int64 (N,)
    size: int
    base: np.ndarray  # int64 (N,)
    starts: np.ndarray  # int64 (R,), or (0,) if R == N
    run: np.ndarray  # int64 (N,), or (0,) if R == N

    @staticmethod
    def of(
        direction: Sequence[float], slopes: np.ndarray, labels: np.ndarray, sentence: np.ndarray, size: int
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
        return SearchPlan(tuple(direction), slopes, sentence, size, base, starts, run)

    def heads(self, intercepts: np.ndarray) -> np.ndarray:
        """The row of each run with the highest intercept, ties to the lowest label."""
        if not len(self.run):
            return self.base
        return self.base[_first_max(intercepts[self.base], self.starts, self.run)]


def _hulls(intercepts: np.ndarray, plan: SearchPlan) -> Hulls:
    """Upper envelopes of all sentences of ``plan`` at ``intercepts``, flat.

    In sentence order: the breakpoints, each segment's row and each
    sentence's segment count.  Lines sort by ascending slope; slope ties
    keep the higher intercept (it dominates everywhere), full ties the
    lowest label.  Lines that two others of their sentence dominate are
    dropped by :func:`_may_reach_hull`, given each head's sentence, then
    one stack loop runs over all.
    """
    kept = plan.heads(intercepts)
    owner = plan.sentence[kept]
    reach = _may_reach_hull(intercepts[kept], owner)
    kept, owner = kept[reach], owner[reach]
    fresh = np.ones(len(kept), dtype=bool)
    fresh[1:] = owner[1:] != owner[:-1]
    # The stack as columns, with the gamma where each line starts to win:
    # NaN for a sentence's first line, so no crossing ever pops it.
    tops_a: list[float] = []
    tops_b: list[float] = []
    rows: list[int] = []
    breaks: list[float] = []
    lines = zip(intercepts[kept].tolist(), plan.slopes[kept].tolist(), kept.tolist())
    for (a, b, row), first in zip(lines, fresh.tolist()):
        crossing = math.nan
        if not first:
            crossing = (tops_a[-1] - a) / (b - tops_b[-1])
            while crossing <= breaks[-1]:
                del tops_a[-1], tops_b[-1], rows[-1], breaks[-1]
                crossing = (tops_a[-1] - a) / (b - tops_b[-1])
        tops_a.append(a)
        tops_b.append(b)
        rows.append(row)
        breaks.append(crossing)
    segments = np.array(rows, dtype=np.intp)
    counts = np.bincount(plan.sentence[segments], minlength=plan.size)
    return np.delete(np.array(breaks), np.cumsum(counts) - counts), segments, counts


def _sweep(hulls: Hulls, stats: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Boundaries and per-interval statistics rows of merged sentence hulls.

    Events sort stably by gamma; a boundary collects every event within
    ``COALESCE_REL * |g|`` above its first event ``g``, a rule that
    scaling the direction leaves unchanged.  When every gap between
    events exceeds that, each event is its own boundary and no loop
    runs.  Each interval's row is the first interval's row plus the
    integer cumulative sum of the events' incoming-minus-outgoing rows.
    """
    points, segments, counts = hulls
    if not np.isfinite(points).all():
        raise InputError("a breakpoint of the search ray is not finite")
    firsts = np.cumsum(counts) - counts
    # Each segment but a sentence's first enters at one event, and the
    # segment before it leaves.
    enters = np.ones(len(segments), dtype=bool)
    enters[firsts] = False
    deltas = stats[segments[1:][enters[1:]]] - stats[segments[:-1][enters[1:]]]
    initial = stats[segments[firsts]].sum(axis=0)
    order = np.argsort(points, kind="stable")
    running = initial + np.cumsum(deltas[order], axis=0)
    ordered = points[order]
    if (ordered[1:] - ordered[:-1] > COALESCE_REL * np.abs(ordered[:-1])).all():
        return ordered.tolist(), np.vstack((initial, running))
    ordered = ordered.tolist()
    starts = [0]  # each group's first event
    for i, gamma in enumerate(ordered):
        group_start = ordered[starts[-1]]
        if gamma - group_start > COALESCE_REL * abs(group_start):
            starts.append(i)
    ends = np.array(starts[1:] + [len(ordered)], dtype=np.intp) - 1
    return [ordered[i] for i in starts], np.vstack((initial, running[ends]))


def _intervals(
    packed: PackedCorpus, intercepts: np.ndarray, plan: SearchPlan
) -> tuple[Hulls, list[float], np.ndarray]:
    """The kernel calls of :func:`line_search`: sentence hulls, boundaries and
    interval statistics rows along ``plan`` at ``intercepts = packed.project(w)``."""
    hulls = _hulls(intercepts, plan)
    boundaries, rows = _sweep(hulls, packed.stats)
    return hulls, boundaries, rows


def _interval_bounds(boundaries: Sequence[float], index: int) -> tuple[float, float]:
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
    packed: PackedCorpus, w: Sequence[float] | LineSearchResult, d: Sequence[float] | SearchPlan
) -> LineSearchResult:
    """Minimize corpus error along ``w + gamma * d`` exactly.

    ``w`` may also be the result of an earlier search on ``packed``: the
    search starts at its weights and reuses their scores and error.
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
    start = w if isinstance(w, LineSearchResult) else LineSearchResult.at(packed, w)
    w, intercepts, zero_error = start.weights, start.scores, start.error_at_star
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
        # Also at gamma = 0: w + 0.0 * d may turn a -0.0 weight into 0.0,
        # which changes no score (every sum starts from +0.0).
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
        scores = packed.project(weights)
        if packed.argmax_error(scores) == error:
            return LineSearchResult(gamma, error, weights, scores)
    return LineSearchResult(0.0, zero_error, stepped(0.0), intercepts)
