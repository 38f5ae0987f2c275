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

All statistics come from one integer kernel, fed by one feeder,
:func:`stats_blocks`.  It takes ``int32`` id columns: the hypotheses
in order with each sentence's count of them, and one reference column
per reference slot, one line per sentence (a blank line is no
reference).  Every id comes from one :class:`Vocabulary` for
hypotheses and references alike, the only place tokens become ids:
``score`` reads its files into columns here, hypotheses by
:meth:`Vocabulary.column` and references by :func:`reference_columns`,
so it needs no other rotamert module.  ``mert`` and ``rss`` read their
references by :func:`reference_columns` too, and their N-best lists by
``corpus.read_nbest``, into columns of the same vocabulary, which
``PackedCorpus.pack`` packs; ``PackedCorpus.of`` builds the same
columns from a corpus.  The feeder cuts sentences into blocks of about
:data:`BLOCK_TOKENS` tokens, so the kernel's scratch memory does not
grow with the corpus, and the kernel reads integer
token ids, sequence lengths and the sentence that owns each sequence,
never strings.  Every order-n n-gram of a sentence gets a dense
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
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, TypeVar

import numpy as np

from .errors import InputError, LengthMismatch, NoReferences

NGRAM_ORDER = 4

# Tokens (references and hypotheses, plus one per sequence) per kernel
# block.  The kernel's scratch arrays are a few int64 per token of a
# block, so this bounds its memory whatever the corpus size; blocks end
# at sentence boundaries, so one long sentence makes one larger block.
BLOCK_TOKENS = 8192

# Token ids are int32, so one vocabulary holds at most this many tokens.
MAX_VOCABULARY = 2**31 - 1

T = TypeVar("T")


class Column(NamedTuple):
    """Lines as token ids: the ids of every line in order, and each line's token count."""

    tokens: np.ndarray  # int32
    lengths: np.ndarray  # int32, one per line


class Vocabulary(dict):
    """Token ids of one run: ``vocabulary[token]`` is dense from 0, in order of first sight."""

    def __missing__(self, token: str) -> int:
        if len(self) >= MAX_VOCABULARY:
            raise InputError(f"the input holds more than {MAX_VOCABULARY} distinct tokens")
        self[token] = new = len(self)
        return new

    def column(self, lines: Sequence[T], split: Callable[[T], Sequence[str]]) -> Column:
        """The tokens ``split(line)`` of ``lines`` as ids: ``str.split`` for text, ``tuple`` for tokens."""
        # Each line is split twice, for its length and then for its ids, so only
        # one line's token strings exist at a time.
        lengths = np.fromiter(map(len, map(split, lines)), dtype=np.int32, count=len(lines))
        words = chain.from_iterable(map(split, lines))
        tokens = np.fromiter(map(self.__getitem__, words), dtype=np.int32, count=int(lengths.sum()))
        return Column(tokens, lengths)


def reference_columns(
    streams: Iterable[Sequence[str]], sources: Sequence[str] | None, vocabulary: Vocabulary
) -> list[Column]:
    """Parallel reference files as columns, each stream read in turn and then let go.

    The only reference reader.  There must be at least one stream, all of
    one line count (``sources`` names them in that error, ``<refs[j]>``
    when ``None``); a blank line (no tokens) is no reference, and every
    sentence needs a reference.
    """
    columns = [vocabulary.column(lines, str.split) for lines in streams]
    if not columns:
        raise NoReferences("no reference streams given")
    counts = [len(column.lengths) for column in columns]
    if len(set(counts)) > 1:
        sources = [f"<refs[{j}]>" for j in range(len(counts))] if sources is None else sources
        detail = ", ".join(f"{src}: {count}" for src, count in zip(sources, counts))
        raise LengthMismatch(f"reference files disagree on line counts ({detail})")
    if lacking := np.flatnonzero(sum(column.lengths > 0 for column in columns) == 0).tolist():
        raise NoReferences(f"sentence {lacking[0]} has no non-blank reference")
    return columns


@dataclass(frozen=True)
class ErrorValue:
    """Corpus error and the BLEU it complements (``error + bleu == 1``)."""

    error: float
    bleu: float


def _effective_ref_lens(ref_lens: np.ndarray, hyp_lens: np.ndarray) -> np.ndarray:
    """Per hypothesis, the reference length closest to its length, ties to the shorter.

    ``ref_lens`` holds one row per reference slot and one column per
    hypothesis; 0 is no reference, and every column holds a reference.
    """
    # Rank by distance, the shorter of two equally distant references first; no reference last.
    rank = np.where(ref_lens > 0, 2 * np.abs(ref_lens - hyp_lens) + (ref_lens > hyp_lens), np.iinfo(np.int64).max)
    return np.take_along_axis(ref_lens, rank.argmin(axis=0)[None], axis=0)[0]


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
    one row each in order.  The feeder fills in the reference length.
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
    return rows


def stats_blocks(hyps: Column, counts: Sequence[int], refs: Sequence[Column]) -> Iterator[np.ndarray]:
    """Statistics rows of every line of ``hyps``, as one ``int64 (n, 10)`` array per block.

    Sentence ``s`` owns the next ``counts[s]`` lines of ``hyps`` and
    line ``s`` of every ``refs`` column; all ids come from one
    vocabulary.  A blank reference line is no reference.  Rows follow
    the lines of ``hyps``, laid out as the module docstring says.
    Raises :class:`NoReferences` for a sentence without references.
    """
    hyp_offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    hyp_tokens = np.concatenate(([0], np.cumsum(hyps.lengths, dtype=np.int64)))[hyp_offsets]
    # Block sizes: tokens, plus one per sequence.
    size = sum((ref.lengths + (ref.lengths > 0) for ref in refs), np.diff(hyp_tokens + hyp_offsets))
    ends = np.concatenate(([0], np.cumsum(size)))
    start, ref_at = 0, np.zeros(len(refs), dtype=np.int64)  # each reference column's next token
    while start < len(size):
        stop = int(np.searchsorted(ends, ends[start] + BLOCK_TOKENS))
        stop = min(max(stop, start + 1), len(size))
        # Reference lengths by slot and sentence; a blank line (0) is no reference.
        ref_lens = np.array([ref.lengths[start:stop] for ref in refs], dtype=np.int64).reshape(-1, stop - start)
        if lacking := np.flatnonzero(~ref_lens.any(axis=0)).tolist():
            raise NoReferences(f"sentence {start + lacking[0]} has no non-blank reference")
        ref_end = ref_at + ref_lens.sum(axis=1)
        ref_tokens = [ref.tokens[lo:hi] for ref, lo, hi in zip(refs, ref_at, ref_end)]
        token = np.concatenate([*ref_tokens, hyps.tokens[hyp_tokens[start] : hyp_tokens[stop]]])
        slot, ref_owner = np.nonzero(ref_lens)  # slot by slot, as the tokens are
        hyp_owner = np.repeat(np.arange(stop - start), np.diff(hyp_offsets[start : stop + 1]))
        lens = np.concatenate([ref_lens[slot, ref_owner], hyps.lengths[hyp_offsets[start] : hyp_offsets[stop]]])
        rows = _block_rows(token, lens, np.concatenate([ref_owner, hyp_owner]), len(ref_owner))
        rows[:, 9] = _effective_ref_lens(ref_lens[:, hyp_owner], rows[:, 8])
        yield rows
        start, ref_at = stop, ref_end


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
