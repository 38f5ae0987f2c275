"""Exact line search over the piecewise-constant corpus error surface.

Along a ray ``w + gamma * d`` every hypothesis of a sentence scores as a
line ``a + gamma * b`` with intercept ``a = w . h`` and slope
``b = d . h``.  The argmax hypothesis as a function of gamma is the
upper envelope of those lines: a slope-sorted sweep keeps the surviving
lines and the breakpoints where the winner changes.  Merging all
sentences' breakpoints yields intervals on which the corpus-wide
selection is constant, so interval error statistics update by integer
deltas while walking left to right.

The search runs on a :class:`PackedCorpus` of flat arrays, which
:meth:`PackedCorpus.pack` builds from the id columns of the readers
(:meth:`PackedCorpus.of` turns a ``TuningCorpus`` into such columns and
packs them the same way).  Projection
sums feature columns left to right from 0.0, so every score is
bit-identical to that scalar loop (a BLAS product would reorder the
sums).  A :class:`SearchPlan` holds what every search along one
direction shares.  It projects only the direction's listed ``(index,
coefficient)`` pairs, each index in range and listed once, so an
untilted axis' slopes are its feature column added to 0.0, and the pack
keeps each untilted axis' plan, by index, for every descent over it.
:func:`line_search` takes a batch of (start, plan) pairs on one pack,
which :func:`~rotamert.descent.kcd_lockstep` bounds by ``BLOCK_ROWS``
rows, and calls its two kernels once per batch: :func:`_hulls` builds every envelope of every
search by numpy pruning passes over flat arrays, which keep the lines
the stack loop keeps (a call over few lines runs that loop instead),
and :func:`_sweep` merges each search's breakpoints with one sort,
looping only for the searches where some of them group.  Each result
is bit-identical to its search run alone.  Interval ``i`` spans
``edges[i]..edges[i + 1]`` of ``[-inf, *boundaries, inf]``.  Every
winner is picked by one rule, :func:`_first_max`: the highest value,
ties to the lowest rank.

Two exact shortcuts keep the search cheap: a numpy prefilter drops the
lines two others dominate before the envelopes are built, and only intervals
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

from .bleu import Column, ErrorValue, Vocabulary, row_bleu, row_errors, stats_blocks
from .corpus import Nbest, TuningCorpus, _check_feature_dim, _check_ids, reference_slots
from .errors import ConfigError, DimensionMismatch, InputError, as_index, as_instance, as_items, as_real, as_reals

# Breakpoints within this fraction of a group's first breakpoint join
# that group, so the grouping does not depend on the scale of the
# direction (rounding spreads concurrent lines' crossings over a few ulps).
COALESCE_REL = 2**-30

# Intervals whose numpy error estimate (row_errors) lies within this
# of the smallest estimate are rescored by the scalar row_bleu.  The
# estimate is within 1e-12 of row_bleu, far inside half this bound.
RESCORE_BOUND = 1e-9

# Pruning passes over all envelopes before the stack loop takes the
# survivors.  A pass costs about 30 us plus 0.015 us per line, the stack
# loop about 0.8 us per line (2-core Xeon VM), and a pass drops at most one line per
# envelope: the searches of the benchmark workloads need a median of 10
# passes and at most 42.  So the passes run only when a call's envelopes
# hold at least PASS_MIN_LINES lines after the prefilter, as a lockstep
# call of several searches on a small corpus does; a lone search over
# 40 sentences of 50 hypotheses keeps about 400 lines and goes straight
# to the stack loop.  At most HULL_PASSES passes run, so no input costs
# more than that many passes and one loop: about 7 stack loops at 1024
# lines, under three at 40,000.
HULL_PASSES = 128
PASS_MIN_LINES = 1024

Hulls = tuple[np.ndarray, np.ndarray, np.ndarray]  # breakpoints, segment rows, (searches, sentences) counts


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
        """The zero step at ``w``, read once as :meth:`PackedCorpus.project` reads it: the
        error and scores of ``w`` on ``packed``."""
        w = as_reals(w, as_instance(packed, PackedCorpus, "packed").feature_dim, "vector entries")
        scores = packed.project(w)
        return LineSearchResult(0.0, packed.argmax_error(scores), w, scores, packed)


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
    def pack(nbest: Nbest, refs: Sequence[Column]) -> PackedCorpus:
        """Pack the columns of ``corpus.read_nbest`` and ``bleu.reference_columns``, of one vocabulary.

        The one place a corpus becomes arrays.  The N-best ids are checked
        against the reference lines before anything is sized by them.
        """
        size = _check_ids(set(nbest.ids), set(range(len(refs[0].lengths))))
        rows, dim = nbest.features.shape
        _check_feature_dim(dim)
        counts = np.bincount(nbest.ids, minlength=size)
        offsets = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        stats = np.empty((rows, 10), dtype=np.int64)
        end = 0
        for block in stats_blocks(nbest.hyps, counts, refs):
            stats[end : end + len(block)] = block
            end += len(block)
        sentence = np.repeat(np.arange(size, dtype=np.int64), counts)
        names = tuple(f"f{i}" for i in range(dim)) if nbest.names is None else tuple(nbest.names)
        return PackedCorpus(nbest.features, offsets, stats, sentence, names)

    @staticmethod
    def of(corpus: TuningCorpus) -> PackedCorpus:
        """Pack ``corpus`` by :meth:`pack`: its hypotheses in row order, and each
        reference slot of :func:`reference_slots`, whose ``()`` padding is no reference."""
        dim = as_instance(corpus, TuningCorpus, "corpus").feature_dim
        hyps = [h for entry in corpus.entries for h in entry.hypotheses]
        vocabulary = Vocabulary()
        tokens = vocabulary.column([h.tokens for h in hyps], tuple)
        features = np.array([h.features for h in hyps], dtype=np.float64).reshape(len(hyps), dim)
        ids = [s for s, entry in enumerate(corpus.entries) for _ in entry.hypotheses]
        nbest = Nbest(ids, tokens, features, corpus.feature_names)
        return PackedCorpus.pack(nbest, [vocabulary.column(slot, tuple) for slot in reference_slots(corpus)])

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

        ``d`` is read by :func:`as_items`, at most ``M + 1`` pairs of it if it has no ``len``.
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
    pairs: dict[int, float] = {}
    for item in as_items(d, "a direction", limit=dim + 1):
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


def _hulls(intercepts: Sequence[np.ndarray], plans: Sequence[SearchPlan]) -> Hulls:
    """Upper envelopes of every sentence of every search, flat.

    Search ``i`` scores its lines at ``intercepts[i]`` along
    ``plans[i]``, all plans of one pack.  In (search, sentence) order:
    the breakpoints, each segment's row and, shaped (searches,
    sentences), each envelope's segment count.  Lines sort by ascending
    slope; slope ties keep the higher intercept (it dominates
    everywhere), full ties the lowest rank.  Lines that two others of
    their sentence dominate are dropped by :func:`_may_reach_hull`, once
    over all searches, given each head's (search, sentence) group.

    Then, over at least ``PASS_MIN_LINES`` lines, pruning passes run
    over all groups at once.  A line with a neighbour of its group on
    both sides fails where it leaves the envelope no later than it
    enters: ``leave <= enter``, with ``enter`` the crossing with its
    left neighbour and ``leave`` the one with its right, the stack
    loop's own crossing formula and pop test.  Each
    pass drops the first failing line of every group, and passes repeat
    until one drops nothing.  The stack loop pops lines in that order
    too: its kept lines never fail, so the next line it pops is always
    the first failing line of the current sequence, tested against the
    same neighbours.  The passes therefore keep the lines the loop keeps
    in floats, not only in exact arithmetic; dropping every failing line
    at once would not, since for nearly concurrent lines the float
    tests depend on which neighbour went first.  The breakpoints are the
    crossings of adjacent survivors.  Fewer lines, or survivors of
    ``HULL_PASSES`` passes that still drop lines, go through the stack
    loop, which goes on from where any passes stopped.
    """
    size = plans[0].size
    kept = [plan.heads(a) for a, plan in zip(intercepts, plans)]
    rows = np.concatenate(kept)
    a = np.concatenate([x[k] for x, k in zip(intercepts, kept)])
    b = np.concatenate([plan.slopes[k] for plan, k in zip(plans, kept)])
    owner = np.concatenate([plan.sentence[k] + i * size for i, (plan, k) in enumerate(zip(plans, kept))])
    reach = _may_reach_hull(a, owner)
    a, b, rows, owner = a[reach], b[reach], rows[reach], owner[reach]
    for _ in range(HULL_PASSES if len(a) >= PASS_MIN_LINES else 0):
        same, crossing = _crossings(a, b, owner)
        failing = np.flatnonzero(same[:-1] & same[1:] & (crossing[1:] <= crossing[:-1])) + 1
        if not len(failing):
            break
        group = owner[failing]
        first = np.ones(len(failing), dtype=bool)
        first[1:] = group[1:] != group[:-1]
        keep = np.ones(len(a), dtype=bool)
        keep[failing[first]] = False
        a, b, rows, owner = a[keep], b[keep], rows[keep], owner[keep]
    else:
        keep = _stack(a, b, owner)
        a, b, rows, owner = a[keep], b[keep], rows[keep], owner[keep]
        same, crossing = _crossings(a, b, owner)
    counts = np.bincount(owner, minlength=len(plans) * size).reshape(len(plans), size)
    return crossing[same], rows, counts


def _crossings(a: np.ndarray, b: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each pair of adjacent lines shares its group, and the gamma where
    the right one overtakes the left, ``(a[i] - a[i + 1]) / (b[i + 1] - b[i])``."""
    with np.errstate(all="ignore"):
        return owner[1:] == owner[:-1], (a[:-1] - a[1:]) / (b[1:] - b[:-1])


def _stack(a: np.ndarray, b: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Positions of the envelope lines, by one stack loop over every group.

    The stack holds each kept line with the gamma where it starts to
    win: NaN for a group's first line, so no crossing ever pops it.
    """
    fresh = np.ones(len(a), dtype=bool)
    fresh[1:] = owner[1:] != owner[:-1]
    tops_a: list[float] = []
    tops_b: list[float] = []
    kept: list[int] = []
    breaks: list[float] = []
    for i, (x, y, first) in enumerate(zip(a.tolist(), b.tolist(), fresh.tolist())):
        crossing = math.nan
        if not first:
            crossing = (tops_a[-1] - x) / (y - tops_b[-1])
            while crossing <= breaks[-1]:
                del tops_a[-1], tops_b[-1], kept[-1], breaks[-1]
                crossing = (tops_a[-1] - x) / (y - tops_b[-1])
        tops_a.append(x)
        tops_b.append(y)
        kept.append(i)
        breaks.append(crossing)
    return np.array(kept, dtype=np.intp)


def _sweep(hulls: Hulls, stats: np.ndarray) -> list[tuple[list[float], np.ndarray]]:
    """Boundaries and per-interval statistics rows of each search's merged hulls.

    Events sort by (search, gamma), stably; a boundary collects every
    event of its search within ``COALESCE_REL * |g|`` above its first
    event ``g``, a rule that scaling the direction leaves unchanged.
    When every gap between a search's events exceeds that, each event is
    its own boundary, and the grouping loop runs only for the searches
    where some do not.  Each interval's row is the search's first
    interval's row plus the integer cumulative sum of its events'
    incoming-minus-outgoing rows.
    """
    points, segments, counts = hulls
    if not np.isfinite(points).all():
        raise InputError("a breakpoint of the search ray is not finite")
    searches = len(counts)
    counts = counts.ravel()
    firsts = np.cumsum(counts) - counts
    # Each segment but a sentence's first enters at one event, and the
    # segment before it leaves.
    enters = np.ones(len(segments), dtype=bool)
    enters[firsts] = False
    deltas = stats[segments[1:][enters[1:]]] - stats[segments[:-1][enters[1:]]]
    initial = stats[segments[firsts]].reshape(searches, -1, stats.shape[1]).sum(axis=1)
    events = (counts - 1).reshape(searches, -1).sum(axis=1)
    search = np.repeat(np.arange(searches), events)
    order = np.lexsort((points, search))
    # Integer sums are exact, so each search's running sum is the global
    # one less its value before the search's first event.
    total = np.zeros((len(order) + 1, stats.shape[1]), dtype=stats.dtype)
    np.cumsum(deltas[order], axis=0, out=total[1:])
    ends = np.cumsum(events)
    begins = ends - events
    running = total[1:] - (total[begins] - initial)[search]
    ordered = points[order]
    spread = ordered[1:] - ordered[:-1] > COALESCE_REL * np.abs(ordered[:-1])
    grouped = np.zeros(searches, dtype=bool)
    grouped[search[1:][~spread & (search[1:] == search[:-1])]] = True
    sweeps = []
    for i, (begin, end) in enumerate(zip(begins.tolist(), ends.tolist())):
        gammas = ordered[begin:end].tolist()
        if not grouped[i]:
            sweeps.append((gammas, np.vstack((initial[i], running[begin:end]))))
            continue
        starts = [0]  # each group's first event
        for j, gamma in enumerate(gammas):
            group_start = gammas[starts[-1]]
            if gamma - group_start > COALESCE_REL * abs(group_start):
                starts.append(j)
        last = np.array(starts[1:] + [len(gammas)], dtype=np.intp) - 1
        sweeps.append(([gammas[j] for j in starts], np.vstack((initial[i], running[begin:end][last]))))
    return sweeps


def _midpoint(lower: float, upper: float) -> float:
    # Unbounded intervals step 1.0 past their one edge; no edges, no step.
    if lower == float("-inf"):
        return 0.0 if upper == float("inf") else upper - 1.0
    if upper == float("inf"):
        return lower + 1.0
    return (lower + upper) / 2.0


def line_search(
    packed: PackedCorpus, starts: Sequence[LineSearchResult], plans: Sequence[SearchPlan]
) -> list[LineSearchResult]:
    """Minimize corpus error exactly along ``w + gamma * d`` for each (start, plan)
    pair, ``w`` the start's weights and ``d`` the plan's direction.

    Each start is :meth:`LineSearchResult.at` or an earlier search's
    result, whose scores and error the search reuses, and each plan
    comes from ``packed.plan``, which a caller searching one direction
    many times builds once.  ``starts`` and ``plans`` are read by :func:`as_items`
    and of equal length; each argument of another type, and a start or a plan
    made on another pack, is a :class:`ConfigError`.  The searches run as
    one: :func:`_hulls`, :func:`_sweep` and :func:`row_errors` each run
    once over all of them, and only the choice of each step is made one
    search at a time.  Each result is bit-identical to the search's run
    alone.  A batch that raises raises one of its searches' errors; the
    serial one is :func:`~rotamert.descent.kcd_lockstep`'s to find.

    Each search returns the midpoint of the minimum-error interval
    (offset by 1.0 into unbounded intervals); interval ties resolve
    toward the interval containing or closest to gamma = 0, then
    leftmost.  With no breakpoints at all the step is 0.  The result
    never scores worse than staying at gamma = 0.  Its ``weights`` are
    ``w + gamma_star * d``, built once here, and its error is the error
    at those weights.
    """
    as_instance(packed, PackedCorpus, "packed")
    starts, plans = as_items(starts, "starts", LineSearchResult), as_items(plans, "plans", SearchPlan)
    if len(starts) != len(plans):
        raise ConfigError(f"{len(starts)} search starts for {len(plans)} plans")
    if any(start.packed is not packed for start in starts):
        raise ConfigError("the search start was made on another packed corpus")
    if any(plan.sentence is not packed.sentence for plan in plans):
        raise ConfigError("the search plan was made for another packed corpus")
    if not plans:
        return []
    sweeps = _sweep(_hulls([start.scores for start in starts], plans), packed.stats)
    # One numpy estimate over every interval of every search.
    estimates = row_errors(np.vstack([rows for _, rows in sweeps]))
    ends = np.cumsum([len(rows) for _, rows in sweeps]).tolist()
    return [
        _step(packed, start, plan, boundaries, rows, estimates[end - len(rows) : end])
        for start, plan, (boundaries, rows), end in zip(starts, plans, sweeps, ends)
    ]


def _step(
    packed: PackedCorpus,
    start: LineSearchResult,
    plan: SearchPlan,
    boundaries: list[float],
    rows: np.ndarray,
    estimate: np.ndarray,
) -> LineSearchResult:
    """One search's choice among its intervals, given their rows and error estimates."""
    w, intercepts, zero_error = start.weights, start.scores, start.error_at_star
    edges = [-math.inf, *boundaries, math.inf]
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
