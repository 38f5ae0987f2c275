"""Corpus BLEU from additive integer sufficient statistics.

Order-4, unsmoothed, multi-reference BLEU.  Every hypothesis reduces to
ten integers (:meth:`BleuStats.row`): clipped n-gram matches, n-gram
totals, and the two lengths; statistics add (and subtract)
componentwise, so corpus score changes under a different hypothesis
selection are cheap integer deltas.  The score itself is::

    BLEU = BP * exp(mean_n log(match_n / total_n))

with ``BP = 1`` when the hypothesis side is longer than the effective
reference length and ``exp(1 - ref_len / hyp_len)`` otherwise.  Any zero
match or total at some order pins the whole score to 0 (no smoothing).

All statistics come from one integer kernel, :func:`stats_blocks`.  It
takes sentences (hypotheses with their references) in blocks of about
:data:`BLOCK_TOKENS` tokens, so its scratch memory does not grow with
the corpus.  Within a block every token gets an integer id, and every
order-n n-gram of a sentence gets a dense id from its order-(n-1)
prefix id and its last token, so keys stay in ``int64`` for any
vocabulary.  One stable sort per order groups equal (sentence, n-gram)
occurrences, references first; a hypothesis occurrence matches while
its running count in that hypothesis is at most the largest count in
any one reference, which sums to ``min(count_hyp, max_r count_r)`` per
n-gram.  :func:`hypothesis_stats` and :func:`sentence_bleu_stats` are
adapters over the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Tokens, TuningCorpus
from .errors import NoReferences

NGRAM_ORDER = 4

# Tokens (references and hypotheses, plus one per sequence) per kernel
# block.  The kernel's scratch arrays are a few int64 per token of a
# block, so this bounds its memory whatever the corpus size; blocks end
# at sentence boundaries, so one long sentence makes one larger block.
BLOCK_TOKENS = 8192

# One sentence as the kernel takes it: its hypotheses and its references.
Sentence = tuple[Sequence[Sequence[str]], Sequence[Sequence[str]]]


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


def _closest_ref_lens(
    ref_lens: np.ndarray, ref_owner: np.ndarray, hyp_lens: np.ndarray, hyp_owner: np.ndarray
) -> np.ndarray:
    """Per hypothesis, the length of its owner's reference closest to it, ties to the shorter.

    ``*_owner`` are sentence indices; every owner of a hypothesis owns
    at least one reference.
    """
    span = int(max(ref_lens.max(), hyp_lens.max(initial=0))) + 1
    keys = np.sort(ref_owner * span + ref_lens)
    base = hyp_owner * span
    first = np.searchsorted(keys, base)
    end = np.searchsorted(keys, base + span)
    at = np.searchsorted(keys, base + hyp_lens)  # first reference at least as long
    longer = keys[np.minimum(at, len(keys) - 1)] - base
    shorter = keys[np.maximum(at - 1, 0)] - base
    take_shorter = (at > first) & ((at == end) | (hyp_lens - shorter <= longer - hyp_lens))
    return np.where(take_shorter, shorter, longer)


def closest_ref_len(hyp_len: int, ref_lens: Iterable[int]) -> int:
    """Effective reference length: closest to ``hyp_len``, ties to the shorter."""
    lens = np.fromiter(ref_lens, dtype=np.int64)
    owners = np.zeros(len(lens), dtype=np.int64)
    return int(_closest_ref_lens(lens, owners, np.array([hyp_len]), owners[:1])[0])


def _block_rows(block: list[Sentence]) -> np.ndarray:
    """Statistics rows of the hypotheses of one block of sentences."""
    refs = list(chain.from_iterable(sentence_refs for _, sentence_refs in block))
    hyps = list(chain.from_iterable(sentence_hyps for sentence_hyps, _ in block))
    n_refs, n_hyps = len(refs), len(hyps)
    seqs = refs + hyps  # references first: they lead every run of equal n-grams
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ends = np.cumsum(lens)
    width = int(ends[-1])
    # A token's id is the position of its first occurrence in the block.
    first_seen: dict[str, int] = {}
    token = np.fromiter(
        map(first_seen.setdefault, chain.from_iterable(seqs), count()), dtype=np.int64, count=width
    )
    sentences = np.arange(len(block))
    owner = np.concatenate(
        (
            np.repeat(sentences, [len(sentence_refs) for _, sentence_refs in block]),
            np.repeat(sentences, [len(sentence_hyps) for sentence_hyps, _ in block]),
        )
    )
    seq = np.repeat(np.arange(len(seqs)), lens)  # sequence of each position
    left = np.repeat(ends, lens) - np.arange(width)  # tokens from a position to its sequence's end
    gram = owner[seq]  # order-0 id of each position: its sentence
    pos = np.arange(width)
    hyp_lens = lens[n_refs:]
    rows = np.zeros((n_hyps, 10), dtype=np.int64)
    for n in range(1, NGRAM_ORDER + 1):
        pos = pos[left[pos] >= n]
        rows[:, NGRAM_ORDER + n - 1] = np.maximum(hyp_lens - (n - 1), 0)
        if not len(pos):
            break
        # Positions are in sequence order and the sort is stable, so each
        # run of one n-gram lists its references' occurrences first.
        key = gram[pos] * width + token[pos + n - 1]
        order = np.argsort(key, kind="stable")
        key = key[order]
        owner_seq = seq[pos[order]]
        new_gram = np.empty(len(key), dtype=bool)
        new_gram[0] = True
        np.not_equal(key[1:], key[:-1], out=new_gram[1:])
        group = np.cumsum(new_gram) - 1
        gram[pos[order]] = group
        new_run = new_gram.copy()
        new_run[1:] |= owner_seq[1:] != owner_seq[:-1]
        index = np.arange(len(key))
        occurrence = index - np.maximum.accumulate(np.where(new_run, index, 0)) + 1
        in_hyp = owner_seq >= n_refs
        ref_max = np.maximum.reduceat(np.where(in_hyp, 0, occurrence), np.flatnonzero(new_gram))
        matched = in_hyp & (occurrence <= ref_max[group])
        rows[:, n - 1] = np.bincount(owner_seq[matched] - n_refs, minlength=n_hyps)
    rows[:, 8] = hyp_lens
    rows[:, 9] = _closest_ref_lens(lens[:n_refs], owner[:n_refs], hyp_lens, owner[n_refs:])
    return rows


def stats_blocks(
    sentences: Iterable[Sentence], *, _block_tokens: int = BLOCK_TOKENS
) -> Iterator[np.ndarray]:
    """Statistics rows of every hypothesis, as one ``int64 (n, 10)`` array per block.

    Rows follow the input order, laid out as :meth:`BleuStats.row`.
    Raises :class:`NoReferences` for a sentence without references.
    """
    block: list[Sentence] = []
    size = 0
    for sentence_hyps, sentence_refs in sentences:
        if not sentence_refs:
            raise NoReferences("sentence has no references")
        block.append((sentence_hyps, sentence_refs))
        size += sum(map(len, sentence_hyps)) + sum(map(len, sentence_refs))
        size += len(sentence_hyps) + len(sentence_refs)
        if size >= _block_tokens:
            yield _block_rows(block)
            block, size = [], 0
    if block:
        yield _block_rows(block)


def corpus_stats(corpus: TuningCorpus) -> np.ndarray:
    """``int64 (N, 10)`` statistics rows of every hypothesis, in sentence and rank order."""
    blocks = stats_blocks(
        ([h.tokens for h in entry.hypotheses], entry.references) for entry in corpus.entries
    )
    return np.concatenate([np.zeros((0, 10), dtype=np.int64), *blocks])


def sentence_bleu_stats(hyp: Sequence[str], refs: Sequence[Tokens]) -> BleuStats:
    """Clipped n-gram statistics of one hypothesis against its references."""
    (row,) = next(stats_blocks([((hyp,), refs)])).tolist()
    return BleuStats.from_row(row)


def aggregate(stats: Iterable[BleuStats]) -> BleuStats:
    """Sum statistics over sentences (order does not matter).

    The ten-integer rows are summed column by column into one result.
    """
    columns = [sum(column) for column in zip(*(st.row() for st in stats))]
    return BleuStats.from_row(columns) if columns else BleuStats.zero()


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
    """Per-(sentence, hypothesis) statistics: :func:`corpus_stats` as :class:`BleuStats`."""
    rows = iter(corpus_stats(corpus).tolist())
    return [
        [BleuStats.from_row(next(rows)) for _ in entry.hypotheses] for entry in corpus.entries
    ]


def selection_error(
    stats_cache: Sequence[Sequence[BleuStats]], chosen: Sequence[int]
) -> ErrorValue:
    """Corpus error of picking hypothesis ``chosen[s]`` in each sentence."""
    return corpus_bleu(aggregate(stats_cache[s][k] for s, k in enumerate(chosen)))
