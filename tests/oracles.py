"""Brute-force reference implementations used only by the tests.

Everything here favors obviousness over speed: scores are scalar
left-to-right dot products, the clipping oracle counts each n-gram
order separately, the envelope oracle probes between all O(K^2)
pairwise crossings, the bare stack builds one sentence's hull at a
time, the domination reference scans one sentence's intercepts at a
time, the interval oracles re-derive each interval's statistics from
scratch at a probe point or from the hulls' breakpoints, and the
weight-grid scan enumerates every selection a dense grid of weight
vectors can reach, and a coordinate system's axes are written out as
dense vectors entry by entry.  Statistics rows are summed as Python ints,
independently of the production sums.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

import numpy as np

from rotamert.bleu import row_bleu


def dot(u, v):
    """Fixed-order dot product: the summation order every projected score follows."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def dense_axis(system, i):
    """Axis ``i`` as a dense vector: ``e_i``, or ``e_A + alpha * e_B`` entry by entry."""
    for r in system.provenance:
        if r.from_dim == i:
            return tuple(float(j == i) + r.alpha * float(j == r.to_dim) for j in range(system.dim))
    return tuple(float(j == i) for j in range(system.dim))


def clipped_stats_by_counting(hyp, refs):
    """BLEU statistics of one hypothesis by the textbook clipping rule.

    For each order n, every distinct hypothesis n-gram contributes
    ``min(count in hyp, max count over refs)`` matches; the total is the
    number of hypothesis n-grams.  The effective reference length is the
    one closest to the hypothesis length, ties to the shorter.
    """
    matches, totals = [], []
    for n in range(1, 5):
        hyp_counts = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        ref_counts = [
            Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            for ref in refs
        ]
        matches.append(
            sum(
                min(count, max(rc[g] for rc in ref_counts))
                for g, count in hyp_counts.items()
            )
        )
        totals.append(sum(hyp_counts.values()))
    gap = min(abs(len(ref) - len(hyp)) for ref in refs)
    ref_len = min(len(ref) for ref in refs if abs(len(ref) - len(hyp)) == gap)
    return (*matches, *totals, len(hyp), ref_len)


def sentence_rows(packed):
    """Each sentence's statistics rows, as tuples of Python ints."""
    rows = list(map(tuple, packed.stats.tolist()))
    bounds = packed.offsets.tolist()
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def sum_rows(rows):
    """Column sums of statistics rows, as Python ints; the zero row for none."""
    return tuple(map(sum, zip(*rows))) or (0,) * 10


def selection_error(packed, chosen):
    """Corpus error of picking hypothesis ``chosen[s]`` in each sentence."""
    table = sentence_rows(packed)
    return row_bleu(sum_rows(table[s][k] for s, k in enumerate(chosen)))


def first_argmax(packed, scores):
    """Rank of each sentence's highest score, ties to the lowest rank."""
    bounds = packed.offsets.tolist()
    return [int(np.argmax(scores[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def hull_by_stack(intercepts, slopes, labels):
    """One sentence's upper envelope by the bare float stack.

    Lines come in strictly ascending slope order.  Returns the
    breakpoints and the labels of the segments between them; the
    production kernel runs the same stack over all sentences at once.
    """
    stack = []
    breaks = []
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


def running_maxima_from_both_ends(sentences):
    """Per line, whether its intercept is a running maximum of its sentence
    from the low or from the high end, as one flat list of bools.

    ``sentences`` holds each sentence's intercepts in ascending slope
    order.  A line fails both only when a strictly higher intercept lies
    on each side of it.  Maxima are Python floats, one sentence at a time.
    """
    mask = []
    for intercepts in sentences:
        from_low = []
        best = float("-inf")
        for a in intercepts:
            best = max(best, a)
            from_low.append(a == best)
        from_high = []
        best = float("-inf")
        for a in reversed(intercepts):
            best = max(best, a)
            from_high.append(a == best)
        mask += [low or high for low, high in zip(from_low, reversed(from_high))]
    return mask


def split_hulls(hulls, labels):
    """Flat ``_hulls`` output as one (breakpoints, segment labels) pair of
    tuples per sentence; ``labels[row]`` names a segment's row."""
    breaks, segments, counts = hulls
    per_breaks = np.split(breaks, np.cumsum(counts - 1)[:-1])
    per_rows = np.split(segments, np.cumsum(counts)[:-1])
    return [(tuple(b.tolist()), tuple(labels[r].tolist())) for b, r in zip(per_breaks, per_rows)]


def flat_hulls(hulls, offsets):
    """Per-sentence (breakpoints, segment ranks) hulls in ``_hulls``' flat form, as one search."""
    breaks = [g for hull_breaks, _ in hulls for g in hull_breaks]
    rows = [start + k for start, (_, ranks) in zip(offsets, hulls) for k in ranks]
    counts = [len(ranks) for _, ranks in hulls]
    return (
        np.array(breaks, dtype=np.float64),
        np.array(rows, dtype=np.intp),
        np.array([counts], dtype=np.int64),
    )


def envelope_by_enumeration(lines):
    """Upper envelope via pairwise crossings and midpoint probes.

    Breakpoints are rebuilt from consecutive winners with the same
    intersection formula the production sweep uses, so agreement is
    expected bit for bit.
    """
    crossings = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            li, lj = lines[i], lines[j]
            if li.slope != lj.slope:
                crossings.append(
                    (li.intercept - lj.intercept) / (lj.slope - li.slope)
                )
    xs = sorted(set(crossings))
    if xs:
        probes = [xs[0] - 1.0]
        probes += [(a + b) / 2.0 for a, b in zip(xs, xs[1:])]
        probes.append(xs[-1] + 1.0)
    else:
        probes = [0.0]

    winners = []
    for gamma in probes:
        best = lines[0]
        best_value = best.intercept + gamma * best.slope
        for line in lines[1:]:
            value = line.intercept + gamma * line.slope
            if value > best_value or (
                value == best_value and line.hyp_index < best.hyp_index
            ):
                best, best_value = line, value
        winners.append(best)

    merged = [winners[0]]
    for winner in winners[1:]:
        if winner.hyp_index != merged[-1].hyp_index:
            merged.append(winner)
    breakpoints = tuple(
        (left.intercept - right.intercept) / (right.slope - left.slope)
        for left, right in zip(merged, merged[1:])
    )
    return breakpoints, tuple(line.hyp_index for line in merged)


def interval_probes(boundaries):
    """One gamma strictly inside each interval of a boundary list."""
    if not boundaries:
        return [0.0]
    probes = [boundaries[0] - 1.0]
    probes += [(a + b) / 2.0 for a, b in zip(boundaries, boundaries[1:])]
    probes.append(boundaries[-1] + 1.0)
    return probes


def argmax_at(lines, gamma):
    """Winning hypothesis index at a gamma, ties to the lowest index."""
    best = lines[0]
    best_value = best.intercept + gamma * best.slope
    for line in lines[1:]:
        value = line.intercept + gamma * line.slope
        if value > best_value:
            best, best_value = line, value
    return best.hyp_index


def reselect_interval_stats(lines_per_sentence, packed, boundaries):
    """Interval statistics rows rebuilt from scratch at probe points."""
    table = sentence_rows(packed)
    out = []
    for gamma in interval_probes(boundaries):
        chosen = [argmax_at(lines, gamma) for lines in lines_per_sentence]
        out.append(sum_rows(table[s][k] for s, k in enumerate(chosen)))
    return out


def merged_intervals_by_enumeration(lines_per_sentence, packed, per_sentence_breaks=None):
    """Corpus-level interval structure rebuilt from the pairwise oracle.

    Per-sentence breakpoints come from :func:`envelope_by_enumeration`
    (or are passed in when already computed).  A breakpoint within
    2**-30 of the current boundary's magnitude above it collapses onto
    that boundary, and each interval's statistics are re-selected from
    scratch at a probe point.  Returns (boundaries,
    interval stats, interval errors).
    """
    if per_sentence_breaks is None:
        per_sentence_breaks = [
            envelope_by_enumeration(lines)[0] for lines in lines_per_sentence
        ]
    cut_points = []
    for breaks in per_sentence_breaks:
        cut_points.extend(breaks)
    cut_points.sort()
    boundaries = []
    for gamma in cut_points:
        if boundaries and gamma - boundaries[-1] <= 2.0**-30 * abs(boundaries[-1]):
            continue
        boundaries.append(gamma)
    stats = reselect_interval_stats(lines_per_sentence, packed, boundaries)
    errors = [row_bleu(st) for st in stats]
    return boundaries, stats, errors


def intervals_from_hulls(hulls, packed):
    """Boundaries and interval statistics of per-sentence hulls, grouped on its own.

    ``hulls`` holds each sentence's (breakpoints, segment ranks).  The
    breakpoints are merged and grouped by the relative 2**-30 rule; the
    row after a group sums, over sentences, the segment that follows
    every breakpoint up to that group's last one.  Nothing is probed, so
    intervals narrower than an ulp of their scores are rebuilt exactly.
    """
    table = sentence_rows(packed)
    boundaries, group_ends = [], []
    for gamma in sorted(g for breaks, _ in hulls for g in breaks):
        if boundaries and gamma - boundaries[-1] <= 2.0**-30 * abs(boundaries[-1]):
            group_ends[-1] = gamma
        else:
            boundaries.append(gamma)
            group_ends.append(gamma)
    rows = [
        sum_rows(table[s][ranks[bisect_right(breaks, limit)]] for s, (breaks, ranks) in enumerate(hulls))
        for limit in [float("-inf"), *group_ends]
    ]
    return boundaries, rows


def ray_probe_min_error(lines_per_sentence, packed, boundaries, points=10001):
    """Minimum corpus error over a dense gamma grid along one ray.

    The grid spans [min breakpoint - 2, max breakpoint + 2] (or [-2, 2]
    with no breakpoints).  Selections are vectorized.  Along the ray the
    selection is constant between breakpoints, so equal statistics rows
    come in runs of consecutive probes.  The first row of each run is
    scored through the production row_bleu; every distinct row starts
    some run, so comparisons against the sweep are exact.
    """
    if boundaries:
        lo, hi = boundaries[0] - 2.0, boundaries[-1] + 2.0
    else:
        lo, hi = -2.0, 2.0
    gammas = np.linspace(lo, hi, points)
    rows = np.zeros((points, 10), dtype=np.int64)
    for s, lines in enumerate(lines_per_sentence):
        a = np.array([l.intercept for l in lines])
        b = np.array([l.slope for l in lines])
        chosen = np.argmax(a[None, :] + gammas[:, None] * b[None, :], axis=1)
        rows += packed.stats[packed.offsets[s] : packed.offsets[s + 1]][chosen]
    run_starts = np.ones(points, dtype=bool)
    run_starts[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return min(row_bleu(row).error for row in rows[run_starts].tolist())


def scan_weight_grid(corpus, packed, lo=-2.0, hi=2.0, steps=401):
    """Enumerate all selections reachable on a steps x steps weight grid
    (two features) and return (best ErrorValue, best selection, count)."""
    axis = np.linspace(lo, hi, steps)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    selections = np.empty((grid.shape[0], corpus.size), dtype=np.int64)
    for s, entry in enumerate(corpus.entries):
        h = np.array([hyp.features for hyp in entry.hypotheses])
        selections[:, s] = np.argmax(grid @ h.T, axis=1)
    unique = np.unique(selections, axis=0)
    best_eval = None
    best_selection = None
    for sel in unique:
        chosen = [int(k) for k in sel]
        evaluated = selection_error(packed, chosen)
        if best_eval is None or evaluated.error < best_eval.error:
            best_eval, best_selection = evaluated, chosen
    return best_eval, best_selection, len(unique)
