"""Corpus BLEU from additive integer sufficient statistics.

Order-4, unsmoothed, multi-reference BLEU.  Every hypothesis reduces to
a :class:`BleuStats` of clipped n-gram matches, n-gram totals, and the
two lengths; statistics add (and subtract) componentwise, so corpus
score changes under a different hypothesis selection are cheap integer
deltas.  The score itself is::

    BLEU = BP * exp(mean_n log(match_n / total_n))

with ``BP = 1`` when the hypothesis side is longer than the effective
reference length and ``exp(1 - ref_len / hyp_len)`` otherwise.  Any zero
match or total at some order pins the whole score to 0 (no smoothing).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import Tokens, TuningCorpus
from .errors import NoReferences

NGRAM_ORDER = 4


@dataclass(frozen=True)
class BleuStats:
    """Additive sufficient statistics of one or more sentences."""

    match_n: tuple[int, int, int, int]
    total_n: tuple[int, int, int, int]
    hyp_len: int
    ref_len: int

    def __add__(self, other: "BleuStats") -> "BleuStats":
        return BleuStats(
            tuple(a + b for a, b in zip(self.match_n, other.match_n)),
            tuple(a + b for a, b in zip(self.total_n, other.total_n)),
            self.hyp_len + other.hyp_len,
            self.ref_len + other.ref_len,
        )

    def __sub__(self, other: "BleuStats") -> "BleuStats":
        return BleuStats(
            tuple(a - b for a, b in zip(self.match_n, other.match_n)),
            tuple(a - b for a, b in zip(self.total_n, other.total_n)),
            self.hyp_len - other.hyp_len,
            self.ref_len - other.ref_len,
        )

    @staticmethod
    def zero() -> "BleuStats":
        return BleuStats((0, 0, 0, 0), (0, 0, 0, 0), 0, 0)

    def row(self) -> tuple[int, ...]:
        """The ten integers ``match_n + total_n + (hyp_len, ref_len)``."""
        return (*self.match_n, *self.total_n, self.hyp_len, self.ref_len)

    @staticmethod
    def from_row(row: Sequence[int]) -> "BleuStats":
        return BleuStats(tuple(row[0:4]), tuple(row[4:8]), row[8], row[9])


@dataclass(frozen=True)
class ErrorValue:
    """Corpus error and the BLEU it complements (``error + bleu == 1``)."""

    error: float
    bleu: float


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def closest_ref_len(hyp_len: int, ref_lens: Iterable[int]) -> int:
    """Effective reference length: closest to ``hyp_len``, ties to the shorter."""
    return min(ref_lens, key=lambda rl: (abs(rl - hyp_len), rl))


def _reference_maxima(refs: Sequence[Tokens]) -> tuple[list[Counter], tuple[int, ...]]:
    """Per-order max n-gram counts over a sentence's references, and their lengths.

    They depend on the sentence only, so every hypothesis of it shares them.
    """
    if not refs:
        raise NoReferences("sentence has no references")
    maxima = []
    for n in range(1, NGRAM_ORDER + 1):
        ref_max: Counter = Counter()
        for ref in refs:
            ref_max |= _ngram_counts(ref, n)
        maxima.append(ref_max)
    return maxima, tuple(len(r) for r in refs)


def _clipped_stats(
    hyp: Sequence[str], maxima: Sequence[Counter], ref_lens: Sequence[int]
) -> BleuStats:
    """Statistics of one hypothesis against :func:`_reference_maxima`.

    Matches at order n are ``sum_g min(count_hyp(g), max_r count_r(g))``;
    totals are the plain n-gram counts of the hypothesis.
    """
    hyp = tuple(hyp)
    hyp_len = len(hyp)
    matches = []
    for n, ref_max in enumerate(maxima, start=1):
        hyp_counts = _ngram_counts(hyp, n)
        matches.append(
            sum(min(hyp_counts[g], ref_max[g]) for g in hyp_counts.keys() & ref_max.keys())
        )
    totals = tuple(max(0, hyp_len - n + 1) for n in range(1, NGRAM_ORDER + 1))
    return BleuStats(tuple(matches), totals, hyp_len, closest_ref_len(hyp_len, ref_lens))


def sentence_bleu_stats(hyp: Sequence[str], refs: Sequence[Tokens]) -> BleuStats:
    """Clipped n-gram statistics of one hypothesis against its references."""
    return _clipped_stats(hyp, *_reference_maxima(refs))


def aggregate(stats: Iterable[BleuStats]) -> BleuStats:
    """Sum statistics over sentences (order does not matter)."""
    out = BleuStats.zero()
    for st in stats:
        out = out + st
    return out


def corpus_bleu(agg: BleuStats) -> ErrorValue:
    """Score aggregated statistics; returns error = 1 - BLEU on [0, 1]."""
    return row_bleu(agg.row())


def row_bleu(row: Sequence[int]) -> ErrorValue:
    """:func:`corpus_bleu` of statistics laid out as :meth:`BleuStats.row`."""
    match_n, total_n, hyp_len, ref_len = row[0:4], row[4:8], row[8], row[9]
    if hyp_len == 0:
        return ErrorValue(1.0, 0.0)
    if any(t == 0 for t in total_n) or any(m == 0 for m in match_n):
        return ErrorValue(1.0, 0.0)
    log_precision = sum(
        math.log(m / t) for m, t in zip(match_n, total_n)
    ) / NGRAM_ORDER
    if hyp_len > ref_len:
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - ref_len / hyp_len)
    bleu = brevity * math.exp(log_precision)
    return ErrorValue(1.0 - bleu, bleu)


def hypothesis_stats(corpus: TuningCorpus) -> list[list[BleuStats]]:
    """Per-(sentence, hypothesis) statistics, computed once per corpus.

    Each sentence's reference maxima are built once and shared by all
    of its hypotheses.
    """
    out = []
    for entry in corpus.entries:
        maxima, ref_lens = _reference_maxima(entry.references)
        out.append([_clipped_stats(h.tokens, maxima, ref_lens) for h in entry.hypotheses])
    return out


def selection_error(
    stats_cache: Sequence[Sequence[BleuStats]], chosen: Sequence[int]
) -> ErrorValue:
    """Corpus error of picking hypothesis ``chosen[s]`` in each sentence."""
    return corpus_bleu(aggregate(stats_cache[s][k] for s, k in enumerate(chosen)))
