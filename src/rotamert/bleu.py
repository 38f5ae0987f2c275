"""Corpus BLEU from additive integer sufficient statistics.

Order-4, unsmoothed, multi-reference BLEU.  Every hypothesis reduces to
one statistics row of ten integers::

    match_1..match_4, total_1..total_4, hyp_len, ref_len

clipped n-gram matches, n-gram totals, the hypothesis length and the
effective reference length (the reference length closest to the
hypothesis, ties to the shorter).  Rows add (and subtract) column by
column, so corpus score changes under a different hypothesis selection
are cheap integer deltas.  The score of a row, :func:`row_bleu`, is::

    BLEU = BP * exp(mean_n log(match_n / total_n))

with ``BP = 1`` when the hypothesis side is longer than the effective
reference length and ``exp(1 - ref_len / hyp_len)`` otherwise.  Any zero
match or total at some order pins the whole score to 0 (no smoothing).

All statistics come from one integer kernel.  It takes sentences
(hypotheses with their references) in blocks of about
:data:`BLOCK_TOKENS` tokens, so its scratch memory does not grow with
the corpus, and it reads integer token ids, sequence lengths and the
sentence that owns each sequence, never strings.  Two feeders cut the
blocks and say where the ids come from.  :func:`stats_blocks` takes
token sequences, not corpus objects (``PackedCorpus.of`` feeds it a
tuning corpus), and a token's id is its first position in its block.
:func:`column_blocks` takes the ``int32`` id columns that the ``score``
command reads its files into, one file at a time, with one
``rotamert.corpus.Vocabulary`` for hypotheses and references alike.
``score`` keeps those columns, the vocabulary and one block's scratch;
a file's lines live only while that file is read.  Every order-n n-gram of a sentence gets a dense
id from its order-(n-1) prefix id and its last token, so keys stay in
``int64`` for any vocabulary.  One sort per order groups equal (sentence, n-gram)
occurrences, references first; a hypothesis occurrence matches while
its running count in that hypothesis is at most the largest count in
any one reference, which sums to ``min(count_hyp, max_r count_r)`` per
n-gram.  Only n-grams that occur in a reference and in a hypothesis of
their sentence extend to the next order: no longer n-gram can match
without its prefix matching.  Totals come from lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NoReferences

NGRAM_ORDER = 4

# Tokens (references and hypotheses, plus one per sequence) per kernel
# block.  The kernel's scratch arrays are a few int64 per token of a
# block, so this bounds its memory whatever the corpus size; blocks end
# at sentence boundaries, so one long sentence makes one larger block.
BLOCK_TOKENS = 8192

# One sentence as the kernel takes it: its hypotheses and its references.
Sentence = tuple[Sequence[Sequence[str]], Sequence[Sequence[str]]]


class Column(NamedTuple):
    """One file's lines as token ids: the ids of every line in order, and each line's token count."""

    tokens: np.ndarray  # int32
    lengths: np.ndarray  # int32, one per line


@dataclass(frozen=True)
class ErrorValue:
    """Corpus error and the BLEU it complements (``error + bleu == 1``)."""

    error: float
    bleu: float


def _effective_ref_lens(
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


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of non-negative keys, by a faster sort of unique keys."""
    n = len(key)
    if (int(key.max(initial=0)) + 1) * n < 2**63:  # ties broken by index, within int64
        return np.argsort(key * n + np.arange(n))
    return np.argsort(key, kind="stable")


def _block_rows(token: np.ndarray, lens: np.ndarray, owner: np.ndarray, n_refs: int) -> np.ndarray:
    """Statistics rows of the hypotheses of one block of sentences.

    ``token`` holds the block's token ids, sequence after sequence: any
    non-negative integers, equal for equal tokens.  ``lens`` holds each
    sequence's length and ``owner`` the block's sentence it belongs to.
    The first ``n_refs`` sequences are references, the rest hypotheses,
    one row each in order; every hypothesis's owner owns a reference.
    """
    lens = lens.astype(np.int64, copy=False)
    n_hyps = len(lens) - n_refs
    ends = np.cumsum(lens)
    width = int(ends[-1])
    span = int(token.max(initial=0)) + 1  # every id is below it
    seq = np.repeat(np.arange(len(lens)), lens)  # sequence of each position
    left = np.repeat(ends, lens) - np.arange(width)  # tokens from a position to its sequence's end
    gram = owner[seq]  # order-0 id of each position: its sentence
    pos = np.arange(width)
    hyp_lens = lens[n_refs:]
    rows = np.zeros((n_hyps, 10), dtype=np.int64)
    rows[:, 4:8] = np.maximum(hyp_lens[:, None] - np.arange(NGRAM_ORDER), 0)
    for n in range(1, NGRAM_ORDER + 1):
        if not len(pos):
            break
        # Equal keys share a prefix (at order 1, the sentence) whose
        # occurrences are in sequence order: pos starts so, and stable
        # sorts keep it within runs.  So references lead every run.
        key = gram[pos] * span + token[pos + n - 1]
        order = _stable_argsort(key)
        key = key[order]
        at = pos[order]
        owner_seq = seq[at]
        new_gram = np.empty(len(key), dtype=bool)
        new_gram[0] = True
        np.not_equal(key[1:], key[:-1], out=new_gram[1:])
        starts = np.flatnonzero(new_gram)
        group = np.cumsum(new_gram) - 1
        gram[at] = group
        new_run = new_gram.copy()
        new_run[1:] |= owner_seq[1:] != owner_seq[:-1]
        index = np.arange(len(key))
        occurrence = index - np.maximum.accumulate(np.where(new_run, index, 0)) + 1
        in_hyp = owner_seq >= n_refs
        ref_max = np.maximum.reduceat(np.where(in_hyp, 0, occurrence), starts)
        matched = in_hyp & (occurrence <= ref_max[group])
        rows[:, n - 1] = np.bincount(owner_seq[matched] - n_refs, minlength=n_hyps)
        # An (n+1)-gram fits where n more tokens follow, and can match only if its
        # prefix run starts with a reference and ends with a hypothesis.
        live = (ref_max > 0) & in_hyp[np.append(starts[1:], len(key)) - 1]
        pos = at[live[group] & (left[at] > n)]
    rows[:, 8] = hyp_lens
    rows[:, 9] = _effective_ref_lens(lens[:n_refs], owner[:n_refs], hyp_lens, owner[n_refs:])
    return rows


def _sentence_rows(block: list[Sentence]) -> np.ndarray:
    """:func:`_block_rows` of a block of sentences; a token's id is its first position in the block."""
    refs = [ref for _, sentence_refs in block for ref in sentence_refs]
    hyps = [hyp for sentence_hyps, _ in block for hyp in sentence_hyps]
    seqs = refs + hyps
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    first_seen: dict[str, int] = {}
    token = np.fromiter(
        map(first_seen.setdefault, chain.from_iterable(seqs), count()), dtype=np.int64, count=int(lens.sum())
    )
    sentences = np.arange(len(block))
    owner = np.concatenate(
        (
            np.repeat(sentences, [len(sentence_refs) for _, sentence_refs in block]),
            np.repeat(sentences, [len(sentence_hyps) for sentence_hyps, _ in block]),
        )
    )
    return _block_rows(token, lens, owner, len(refs))


def stats_blocks(
    sentences: Iterable[Sentence], *, _block_tokens: int = BLOCK_TOKENS
) -> Iterator[np.ndarray]:
    """Statistics rows of every hypothesis, as one ``int64 (n, 10)`` array per block.

    Rows follow the input order, laid out as the module docstring says.
    Raises :class:`NoReferences` for a sentence without references.
    """
    block: list[Sentence] = []
    size = 0
    for sentence_hyps, sentence_refs in sentences:
        if not sentence_refs:
            raise NoReferences("sentence has no references")
        block.append((sentence_hyps, sentence_refs))
        size += sum(map(len, sentence_refs)) + sum(map(len, sentence_hyps))
        size += len(sentence_refs) + len(sentence_hyps)
        if size >= _block_tokens:
            yield _sentence_rows(block)
            block, size = [], 0
    if block:
        yield _sentence_rows(block)


def column_blocks(
    hyps: Column, refs: Sequence[Column], *, _block_tokens: int = BLOCK_TOKENS
) -> Iterator[np.ndarray]:
    """Statistics rows of each line of ``hyps`` against the same line of every ``refs`` column.

    Yields one ``int64 (n, 10)`` array per block of lines, cut where
    :func:`stats_blocks` would cut.  Every column holds one line per
    sentence, and its ids are those of one vocabulary for all columns.
    A blank reference line is no reference; the reader checks that
    every sentence keeps one.
    """
    hyp_lens = hyps.lengths
    columns = [*refs, hyps]  # references first
    offsets = [np.concatenate(([0], np.cumsum(column.lengths, dtype=np.int64))) for column in columns]
    # Block sizes as stats_blocks counts them: tokens, plus one per sequence.
    size = sum((ref.lengths + (ref.lengths > 0) for ref in refs), hyp_lens.astype(np.int64) + 1)
    ends = np.concatenate(([0], np.cumsum(size)))
    start = 0
    while start < len(hyp_lens):
        stop = int(np.searchsorted(ends, ends[start] + _block_tokens))
        stop = min(max(stop, start + 1), len(hyp_lens))
        block = slice(start, stop)
        token = np.concatenate([column.tokens[at[start] : at[stop]] for column, at in zip(columns, offsets)])
        kept = [np.flatnonzero(ref.lengths[block]) for ref in refs]  # blank lines are no reference
        ref_lens = [ref.lengths[block][k] for ref, k in zip(refs, kept)]
        lens = np.concatenate([*ref_lens, hyp_lens[block]])
        owner = np.concatenate([*kept, np.arange(stop - start)])
        yield _block_rows(token, lens, owner, len(lens) - (stop - start))
        start = stop


def row_bleu(row: Sequence[int]) -> ErrorValue:
    """Corpus error and BLEU of one statistics row (a corpus's rows summed)."""
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


def format_bleu(bleu: float) -> str:
    """BLEU as every output prints it: times 100, two decimals (``65.68``)."""
    return f"{bleu * 100.0:.2f}"


def row_errors(rows: np.ndarray) -> np.ndarray:
    """:func:`row_bleu` errors of statistics rows, by numpy's ``log`` and ``exp``.

    Every operation is the scalar formula's, in its order (counts above
    2**53 round once more on the way to float).  Only numpy's and math's
    rounding of ``log`` and ``exp`` differ, by a few ulps: with
    ``|log|`` of an int64 count ratio at most 44 and BLEU at most 1,
    each value is within 1e-12 of the scalar error.
    """
    counts = rows.astype(np.float64)
    match, total, hyp_len, ref_len = counts[:, 0:4], counts[:, 4:8], counts[:, 8], counts[:, 9]
    scored = (hyp_len > 0) & (match > 0).all(axis=1) & (total > 0).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(match / total)
        log_precision = (((logs[:, 0] + logs[:, 1]) + logs[:, 2]) + logs[:, 3]) / NGRAM_ORDER
        brevity = np.where(hyp_len > ref_len, 1.0, np.exp(1.0 - ref_len / hyp_len))
        bleu = brevity * np.exp(log_precision)
    return np.where(scored, 1.0 - bleu, 1.0)
