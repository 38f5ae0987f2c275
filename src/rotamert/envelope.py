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
direction shares.  It projects only the direction's listed ``(index,
coefficient)`` pairs, each index in range and listed once, so an
untilted axis' slopes are its feature column added to 0.0, and the pack
keeps each untilted axis' plan, by index, for every descent over it.
:func:`line_search` calls its two kernels once each: :func:`_hulls`
builds all sentences' envelopes in one stack loop over flat arrays, and
:func:`_sweep` merges their breakpoints with numpy, looping only when
some of them group.  Interval ``i`` spans ``edges[i]..edges[i + 1]`` of
``[-inf, *boundaries, inf]``.  Every winner is picked by one rule,
:func:`_first_max`: the highest value, ties to the lowest rank.

Two exact shortcuts keep the search cheap: a numpy prefilter drops the
lines two others dominate before the stack runs, and only intervals
within ``RESCORE_BOUND`` of the smallest numpy error estimate are scored
by the scalar :func:`row_bleu`, which decides.  The chosen step is
checked with one projection of the stepped weights.  The result carries
those weights, their scores and its pack, and a search that starts from
it, on that pack only, reuses both, so each point is projected once and
the reported error is always the error of the weights adopted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .bleu import ErrorValue, Vocabulary, row_bleu, row_errors, stats_blocks
from .corpus import TuningCorpus, reference_slots
from .errors import ConfigError, DimensionMismatch, InputError, as_index, as_instance, as_real, as_reals

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
    # packed.project(weights) on the pack below: a search that starts here reuses it.
    scores: np.ndarray = field(repr=False, compare=False)
    packed: PackedCorpus = field(repr=False, compare=False)

    @staticmethod
    def at(packed: PackedCorpus, w: Sequence[float]) -> LineSearchResult:
        """The zero step at ``w``: the error and scores of ``w`` on ``packed``."""
        scores = as_instance(packed, PackedCorpus, "packed").project(w)
        return LineSearchResult(0.0, packed.argmax_error(scores), tuple(w), scores, packed)


def _statistics(corpus: TuningCorpus, counts: list[int]) -> np.ndarray:
    """Every hypothesis' statistics row, in row order."""
    vocabulary = Vocabulary()
    hyps = vocabulary.column([h.tokens for entry in corpus.entries for h in entry.hypotheses], tuple)
    refs = [vocabulary.column(slot, tuple) for slot in reference_slots(corpus)]
    stats = np.empty((len(hyps.lengths), 10), dtype=np.int64)
    end = 0
    for rows in stats_blocks(hyps, counts, refs):
        stats[end : end + len(rows)] = rows
        end += len(rows)
    return stats


@dataclass(frozen=True, eq=False)
class PackedCorpus:
    """The tuning corpus as flat arrays, one row per hypothesis in sentence order.

    Sentence ``s`` owns rows ``offsets[s]:offsets[s + 1]`` in rank
    order; ``stats`` holds each row's BLEU statistics row.
    """

    features: np.ndarray  # float64 (N, M)
    offsets: np.ndarray  # int64 (S + 1,)
    stats: np.ndarray  # int64 (N, 10)
    sentence: np.ndarray  # int64 (N,): owning sentence of each row
    feature_names: tuple[str, ...]
    # The plan of each untilted axis by its index, built once.
    _axis_plans: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def of(corpus: TuningCorpus) -> PackedCorpus:
        """Pack ``corpus``, the one place a :class:`TuningCorpus` becomes arrays.

        The statistics come from ``bleu.stats_blocks`` on id columns of
        one :class:`Vocabulary`, as ``score`` computes its own: every
        hypothesis in row order, and each reference slot of
        :func:`reference_slots`, whose ``()`` padding is no reference.
        """
        dim = as_instance(corpus, TuningCorpus, "corpus").feature_dim
        counts = [len(entry.hypotheses) for entry in corpus.entries]
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # The statistics first, so their id columns are let go before the features are built.
        stats = _statistics(corpus, counts)
        features = np.array(
            [h.features for entry in corpus.entries for h in entry.hypotheses],
            dtype=np.float64,
        ).reshape(int(offsets[-1]), dim)
        sentence = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        return PackedCorpus(features, offsets, stats, sentence, corpus.feature_names)

    @property
    def size(self) -> int:
        return len(self.offsets) - 1

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def project(self, v: Sequence[float]) -> np.ndarray:
        """Every row's score ``sum_j features[row, j] * v[j]``, summed left to right."""
        return self._sum(enumerate(as_reals(v, self.feature_dim, "vector entries")))

    def _sum(self, pairs: Iterable[tuple[int, float]]) -> np.ndarray:
        """Every row's ``sum features[row, j] * c`` over the ``(j, c)`` pairs, in order from 0.0.

        Overflowed scores are rejected.  The sum is never -0.0, so a ±0.0
        coefficient changes none of its bits.
        """
        acc = np.zeros(len(self.features))
        with np.errstate(over="ignore", invalid="ignore"):
            for j, c in pairs:
                acc += self.features[:, j] * c
        if not np.isfinite(acc).all():
            raise InputError(
                "feature values times weights overflow: a hypothesis score is not finite"
            )
        return acc

    def plan(self, d: Iterable[tuple[int, float]]) -> SearchPlan:
        """The :class:`SearchPlan` along ``(index, coefficient)`` pairs, unlisted entries 0.0.

        Each index is read by :func:`as_index`, lies in ``0..M-1`` and
        appears once; each coefficient is read by :func:`as_real`.  An
        untilted axis' plan, ``((i, 1.0),)``, is kept by its index.
        """
        d = _pairs(d, self.feature_dim)
        axis = d[0][0] if len(d) == 1 and d[0][1] == 1.0 else None
        plan = self._axis_plans.get(axis)
        if plan is None:
            plan = SearchPlan.of(d, self._sum(d), self.sentence, self.size)
            if axis is not None:
                self._axis_plans[axis] = plan
        return plan

    def argmax_error(self, scores: np.ndarray) -> ErrorValue:
        """Corpus error of each sentence's highest-scoring row, ties to the lowest rank.

        The statistics rows are summed as integers and scored by :func:`row_bleu`.
        """
        rows = _first_max(scores, self.offsets[:-1], self.sentence)
        return row_bleu(self.stats[rows].sum(axis=0).tolist())


def _pairs(d: Iterable[tuple[int, float]], dim: int) -> tuple[tuple[int, float], ...]:
    """The ``(index, coefficient)`` pairs of ``d``, checked as :meth:`PackedCorpus.plan` documents, in index order."""
    try:
        items = iter(d)
    except TypeError:
        raise ConfigError(f"a direction must be an iterable of (index, coefficient) pairs, got {d!r}") from None
    pairs: dict[int, float] = {}
    for item in items:
        try:
            index, coefficient = item
        except (TypeError, ValueError):  # not a sequence, or not two parts
            raise ConfigError(
                f"a direction item must be an (index, coefficient) pair of an integer "
                f"and a real number, got {item!r}"
            ) from None
        index, coefficient = as_index(index, "direction index"), as_real(coefficient, "direction coefficient")
        if not 0 <= index < dim:
            raise DimensionMismatch(f"direction index {index} out of range for {dim} features")
        if index in pairs:
            raise ConfigError(f"direction index {index} appears more than once")
        pairs[index] = coefficient
    return tuple(sorted(pairs.items()))


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
    orders the rows by (sentence, slope, rank): rows come in rank order,
    which the stable sort keeps.  Rows of a run of equal (sentence,
    slope) differ only in intercept, so a search keeps one row per run
    (:meth:`heads`).  ``starts`` holds each run's first position and
    ``run`` each position's run; both are empty when every run is one
    row.  The heads come in (sentence, slope) order, which is all that
    :func:`_may_reach_hull` needs of the plan.
    """

    direction: tuple[tuple[int, float], ...]  # (index, coefficient) pairs in index order
    slopes: np.ndarray  # float64 (N,)
    sentence: np.ndarray  # int64 (N,)
    size: int
    base: np.ndarray  # int64 (N,)
    starts: np.ndarray  # int64 (R,), or (0,) if R == N
    run: np.ndarray  # int64 (N,), or (0,) if R == N

    @staticmethod
    def of(
        direction: Sequence[tuple[int, float]], slopes: np.ndarray, sentence: np.ndarray, size: int
    ) -> SearchPlan:
        base = np.lexsort((slopes, sentence))
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
        """The row of each run with the highest intercept, ties to the lowest rank."""
        if not len(self.run):
            return self.base
        return self.base[_first_max(intercepts[self.base], self.starts, self.run)]


def _hulls(intercepts: np.ndarray, plan: SearchPlan) -> Hulls:
    """Upper envelopes of all sentences of ``plan`` at ``intercepts``, flat.

    In sentence order: the breakpoints, each segment's row and each
    sentence's segment count.  Lines sort by ascending slope; slope ties
    keep the higher intercept (it dominates everywhere), full ties the
    lowest rank.  Lines that two others of their sentence dominate are
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


def _midpoint(lower: float, upper: float) -> float:
    # Unbounded intervals step 1.0 past their one edge; no edges, no step.
    if lower == float("-inf"):
        return 0.0 if upper == float("inf") else upper - 1.0
    if upper == float("inf"):
        return lower + 1.0
    return (lower + upper) / 2.0


def line_search(packed: PackedCorpus, start: LineSearchResult, plan: SearchPlan) -> LineSearchResult:
    """Minimize corpus error along ``w + gamma * d`` exactly, ``w`` the start's weights
    and ``d`` the plan's direction.

    ``start`` is :meth:`LineSearchResult.at` or an earlier search's
    result, whose scores and error the search reuses, and ``plan`` comes
    from ``packed.plan``, which a caller searching one direction many
    times builds once.  Each argument of another type, and a start or a
    plan made on another pack, is a :class:`ConfigError`.

    Returns the midpoint of the minimum-error interval (offset by 1.0
    into unbounded intervals); interval ties resolve toward the interval
    containing or closest to gamma = 0, then leftmost.  With no
    breakpoints at all the step is 0.  The result never scores worse
    than staying at gamma = 0.  Its ``weights`` are ``w + gamma_star *
    d``, built once here, and its error is the error at those weights.
    """
    as_instance(packed, PackedCorpus, "packed")
    if as_instance(start, LineSearchResult, "start").packed is not packed:
        raise ConfigError("the search start was made on another packed corpus")
    if as_instance(plan, SearchPlan, "plan").sentence is not packed.sentence:
        raise ConfigError("the search plan was made for another packed corpus")
    w, intercepts, zero_error = start.weights, start.scores, start.error_at_star
    boundaries, rows = _sweep(_hulls(intercepts, plan), packed.stats)
    edges = [-math.inf, *boundaries, math.inf]
    estimate = row_errors(rows)
    # Only intervals near the smallest estimate can hold the scalar
    # minimum; their scalar errors decide, ties as documented above.
    candidates = np.flatnonzero(estimate <= estimate.min() + RESCORE_BOUND)
    scored = {index: row_bleu(rows[index].tolist()) for index in candidates.tolist()}
    # The distance to gamma = 0 is 0 for an interval containing it, else
    # the gap to its nearer edge.
    ranked = sorted(
        scored, key=lambda i: (scored[i].error, max(edges[i], -edges[i + 1], 0.0), i)
    )

    coefficients = dict(plan.direction)

    def stepped(gamma: float) -> tuple[float, ...]:
        # Every entry, unlisted ones by 0.0, also at gamma = 0: w + 0.0 * d
        # may turn a -0.0 weight into 0.0, which changes no score.
        return tuple(wi + gamma * coefficients.get(j, 0.0) for j, wi in enumerate(w))

    for index in ranked:
        error = scored[index]
        # Never move to something worse than the current point (0 on a
        # boundary can tie-break to a better mix than either neighbour).
        if zero_error.error < error.error:
            break
        # Crossings near gamma = 0 round by an absolute amount, so an
        # interval can be too narrow for any stepped weights to select
        # its mix; such an interval is passed over for the next one.
        gamma = _midpoint(edges[index], edges[index + 1])
        weights = stepped(gamma)
        scores = packed.project(weights)
        if packed.argmax_error(scores) == error:
            return LineSearchResult(gamma, error, weights, scores, packed)
    return LineSearchResult(0.0, zero_error, stepped(0.0), intercepts, packed)
