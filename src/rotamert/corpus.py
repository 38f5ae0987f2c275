"""N-best lists, references, and the tuning corpus built from them.

The N-best wire format is one hypothesis per line::

    id ||| token token ... ||| featval featval ... ||| total

``id`` is a non-negative sentence index, the feature field holds one
finite real per feature (optionally preceded by ``name:`` labels, which
are recorded once and stripped), and the trailing ``total`` is parsed
and ignored.  Every labeled line must carry the first labeled line's
labels at the same positions, and the names they give must not repeat;
unlabeled lines are read by position.  References come as parallel
plain-text files, one token sequence per line; a blank line means "this
file contributes no reference for that sentence".

``score`` reads its files as ``bleu.Column`` arrays of token ids from
one :class:`Vocabulary`; :func:`reference_columns` checks reference
files as :func:`parse_references` does.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter

import numpy as np

from .bleu import Column
from .errors import (
    ConfigError,
    EmptyCorpus,
    IdMismatch,
    InconsistentFeatureCount,
    InputError,
    LengthMismatch,
    MalformedLine,
    NoReferences,
    NonNumericFeature,
    as_instance,
)

FIELD_SEP = "|||"

Tokens = tuple[str, ...]

# Token ids are int32, so one vocabulary holds at most this many tokens.
MAX_VOCABULARY = 2**31 - 1


@dataclass(frozen=True)
class Hypothesis:
    """One translation candidate of one sentence."""

    sentence_id: int
    rank: int
    tokens: Tokens
    features: tuple[float, ...]


@dataclass(frozen=True)
class SentenceEntry:
    """All candidates and references of a single sentence."""

    sentence_id: int
    hypotheses: tuple[Hypothesis, ...]
    references: tuple[Tokens, ...]


@dataclass(frozen=True)
class TuningCorpus:
    """A dense, validated collection of sentence entries."""

    entries: tuple[SentenceEntry, ...]
    feature_names: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def feature_dim(self) -> int:
        return len(self.feature_names)


def _is_label(tok: str) -> bool:
    return len(tok) > 1 and tok.endswith(":")


def _feature_names(tokens: Sequence[str]) -> list[str]:
    """Names of the values of a labeled feature field, in order.

    A label with a single value keeps the bare name; a label with several
    values gets a positional suffix per value, numbered on across repeats
    of the label.  A value before the first label is named by its index.
    """
    slots: list[tuple[str | None, int]] = []  # (label, position among the label's values)
    label: str | None = None
    sizes: Counter[str | None] = Counter()
    for tok in tokens:
        if _is_label(tok):
            label = tok[:-1]
        else:
            slots.append((label, sizes[label]))
            sizes[label] += 1
    return [
        f"f{idx}" if lab is None else lab if sizes[lab] == 1 else f"{lab}{pos}"
        for idx, (lab, pos) in enumerate(slots)
    ]


def _listed(value, what: str, kind: type) -> list:
    """``value`` as a list, if it is an iterable of ``kind`` items and not a string;
    else a :class:`ConfigError` naming ``what``."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise ConfigError(f"{what} must be an iterable that is not a string, got {type(value).__name__}")
    items = list(value)
    for item in items:
        if not isinstance(item, kind):
            raise ConfigError(f"{what} must hold only {kind.__name__} items, got {type(item).__name__}")
    return items


def _repeated(names: Sequence[str]) -> str:
    """The names that occur more than once, space-separated; empty when none repeats."""
    return " ".join(name for name, count in Counter(names).items() if count > 1)


def parse_nbest(
    lines: Iterable[str], source: str = "<nbest>"
) -> tuple[dict[int, list[Hypothesis]], list[str] | None]:
    """Parse N-best wire lines into ``{sentence_id: [Hypothesis, ...]}``.

    Ranks are assigned by file order within each id.  Returns the parsed
    map together with the feature names recorded from the first labeled
    line (``None`` when no line carried labels); a later labeled line
    must repeat its labels at the same positions.  ``lines`` is an
    iterable of strings, read at once.  Equal tokens share one ``str``
    per call, so token storage grows with the vocabulary plus one tuple
    slot per token.
    """
    canonical = {}.setdefault  # one object per distinct token
    by_id: dict[int, list[Hypothesis]] = {}
    names: list[str] | None = None
    first_field: list[str] = []  # the feature field of the first labeled line
    expected: int | None = None
    for lineno, raw in enumerate(_listed(lines, "lines", str), start=1):
        line = raw.rstrip("\n")
        parts = line.split(FIELD_SEP)
        if len(parts) != 4:
            raise MalformedLine(
                f"{source}:{lineno}: expected 4 fields separated by "
                f"'{FIELD_SEP}', got {len(parts)}"
            )
        id_text = parts[0].strip()
        try:
            sentence_id = int(id_text)
        except ValueError:
            raise MalformedLine(
                f"{source}:{lineno}: sentence id {id_text!r} is not an integer"
            ) from None
        if sentence_id < 0:
            raise MalformedLine(f"{source}:{lineno}: negative sentence id {sentence_id}")
        words = parts[1].split()
        tokens = tuple(map(canonical, words, words))
        if not tokens:
            raise MalformedLine(f"{source}:{lineno}: empty hypothesis")
        field = parts[2].split()
        values: list[float] = []
        for tok in field:
            if _is_label(tok):
                continue
            try:
                value = float(tok)
            except ValueError:
                raise NonNumericFeature(
                    f"{source}:{lineno}: feature value {tok!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise NonNumericFeature(
                    f"{source}:{lineno}: feature value {tok!r} is not finite"
                )
            values.append(value)
        features = tuple(values)
        if expected is None:
            expected = len(features)
        elif len(features) != expected:
            raise InconsistentFeatureCount(
                f"{source}:{lineno}: expected {expected} features, got {len(features)}"
            )
        if len(field) != len(features):  # labeled
            if names is None:
                names = _feature_names(field)
                if repeated := _repeated(names):
                    raise MalformedLine(f"{source}:{lineno}: feature names repeat: {repeated}")
                first_field = field
                labels_of = itemgetter(*(i for i, tok in enumerate(field) if _is_label(tok)))
                labels = labels_of(field)
            elif len(field) != len(first_field) or labels_of(field) != labels:
                raise MalformedLine(
                    f"{source}:{lineno}: expected the first labeled line's labels at the same "
                    f"positions: {' '.join(filter(_is_label, first_field))}"
                )
        total_text = parts[3].strip()
        try:
            float(total_text)
        except ValueError:
            raise NonNumericFeature(
                f"{source}:{lineno}: total field {total_text!r} is not a number"
            ) from None
        bucket = by_id.setdefault(sentence_id, [])
        bucket.append(Hypothesis(sentence_id, len(bucket), tokens, features))
    return by_id, names


def _check_line_counts(counts: Sequence[int], sources: Sequence[str] | None) -> None:
    """Parallel reference streams, given by their line counts: at least one, all of one count."""
    if not counts:
        raise NoReferences("no reference streams given")
    if len(set(counts)) > 1:
        sources = [f"<refs[{j}]>" for j in range(len(counts))] if sources is None else sources
        detail = ", ".join(f"{src}: {count}" for src, count in zip(sources, counts))
        raise LengthMismatch(f"reference files disagree on line counts ({detail})")


def _check_every_sentence_has_a_reference(counts: Iterable[int]) -> None:
    """``counts`` holds each sentence's number of non-blank references; none may be 0."""
    for i, count in enumerate(counts):
        if not count:
            raise NoReferences(f"sentence {i} has no non-blank reference")


def parse_references(
    streams: Sequence[Iterable[str]], sources: Sequence[str] | None = None
) -> dict[int, list[Tokens]]:
    """Read parallel reference files into ``{sentence_id: [tokens, ...]}``.

    All streams, iterables of strings and not strings themselves, must
    have the same line count; blank lines are skipped for that sentence.
    Equal tokens share one ``str`` across all streams, so token storage
    grows with the vocabulary plus one tuple slot per token.
    """
    streams = [_listed(stream, "a reference stream", str) for stream in _listed(streams, "streams", object)]
    _check_line_counts([len(lines) for lines in streams], sources)
    canonical = {}.setdefault  # one object per distinct token
    refs: dict[int, list[Tokens]] = {}
    for i, row in enumerate(zip(*streams)):
        refs[i] = per_sentence = []
        for line in row:
            words = line.split()
            if tokens := tuple(map(canonical, words, words)):
                per_sentence.append(tokens)
    _check_every_sentence_has_a_reference(map(len, refs.values()))
    return refs


class Vocabulary(dict):
    """Token ids of one run: ``vocabulary[token]`` is dense from 0, in order of first sight."""

    def __missing__(self, token: str) -> int:
        if len(self) >= MAX_VOCABULARY:
            raise InputError(f"the input holds more than {MAX_VOCABULARY} distinct tokens")
        self[token] = new = len(self)
        return new

    def column(self, lines: Sequence[str]) -> Column:
        """The tokens of ``lines``, each line split at whitespace, as one column of ids."""
        # Each line is split twice, for its length and then for its ids, so only
        # one line's token strings exist at a time.
        lengths = np.fromiter(map(len, map(str.split, lines)), dtype=np.int32, count=len(lines))
        words = chain.from_iterable(map(str.split, lines))
        tokens = np.fromiter(map(self.__getitem__, words), dtype=np.int32, count=int(lengths.sum()))
        return Column(tokens, lengths)


def reference_columns(
    streams: Iterable[Sequence[str]], sources: Sequence[str], vocabulary: Vocabulary
) -> list[Column]:
    """Parallel reference files as columns, each stream read in turn and then let go.

    Checked as :func:`parse_references` checks its streams; a blank
    line (no tokens) is no reference.
    """
    columns = [vocabulary.column(lines) for lines in streams]
    _check_line_counts([len(column.lengths) for column in columns], sources)
    _check_every_sentence_has_a_reference(sum(column.lengths > 0 for column in columns).tolist())
    return columns


def _sentence_ids(ids: Mapping[int, object], what: str) -> set[int]:
    """The keys of the mapping ``ids``, which must all be integers."""
    if strange := [i for i in as_instance(ids, Mapping, what) if not isinstance(i, numbers.Integral)]:
        raise IdMismatch(f"{what} sentence ids must be integers, got {strange[0]!r}")
    return set(ids)


def _all_strings(tokens: tuple) -> bool:
    """Whether every item of ``tokens`` is a ``str``, tested at C speed by joining them."""
    try:
        "".join(tokens)
    except TypeError:
        return False
    return True


def _bad_tokens(hyp: Hypothesis) -> MalformedLine:
    """The error for a hypothesis whose tokens are not a tuple of strings."""
    return MalformedLine(
        f"sentence {hyp.sentence_id}, hypothesis {hyp.rank}: tokens must be a tuple of strings, got {hyp.tokens!r}"
    )


def build_corpus(
    nbest: Mapping[int, Sequence[Hypothesis]],
    refs: Mapping[int, Sequence[Tokens]],
    feature_names: Sequence[str] | None = None,
) -> TuningCorpus:
    """Join parsed N-best lists with references into a validated corpus.

    Sentence ids must be integers, line up and be dense ``0..S-1``; each
    hypothesis holds a tuple of ``str`` tokens and a tuple of finite
    feature values, and each reference a sequence of ``str`` tokens
    that is not itself a string.  Hypotheses duplicating another exactly
    (same tokens and features) are dropped, keeping the first.  Given feature names must
    be strings, one per feature, and must not repeat.  The result is
    stable under a second application of this function to its own maps.
    Both maps hold iterables, of :class:`Hypothesis` and of token sequences.
    """
    nbest_ids = _sentence_ids(nbest, "nbest")
    ref_ids = _sentence_ids(refs, "refs")
    if nbest_ids != ref_ids:
        raise IdMismatch(
            f"N-best ids and reference ids differ "
            f"(only in N-best: {sorted(nbest_ids - ref_ids)[:5]}, "
            f"only in refs: {sorted(ref_ids - nbest_ids)[:5]})"
        )
    if not nbest_ids:
        raise EmptyCorpus("corpus has no sentences")
    size = len(nbest_ids)
    if nbest_ids != set(range(size)):
        raise IdMismatch(
            f"sentence ids must be dense 0..{size - 1}, got {sorted(nbest_ids)[:8]}"
        )
    dim: int | None = None
    entries: list[SentenceEntry] = []
    for sentence_id in range(size):
        hyps = _listed(nbest[sentence_id], f"nbest[{sentence_id}]", Hypothesis)
        if not hyps:
            raise EmptyCorpus(f"sentence {sentence_id} has no hypotheses")
        seen: set[tuple[Tokens, tuple[float, ...]]] = set()
        kept: list[Hypothesis] = []
        for hyp in hyps:
            if hyp.sentence_id != sentence_id:
                raise IdMismatch(
                    f"hypothesis tagged {hyp.sentence_id} filed under {sentence_id}"
                )
            if not isinstance(hyp.tokens, tuple) or not _all_strings(hyp.tokens):
                raise _bad_tokens(hyp)
            if not hyp.tokens:
                raise MalformedLine(f"sentence {sentence_id}: empty hypothesis")
            try:
                count = len(hyp.features)
                # A NaN or infinity makes the sum non-finite, and so may finite values.
                finite = math.isfinite(sum(hyp.features)) or all(map(math.isfinite, hyp.features))
            except TypeError:  # not a sequence of real numbers
                message = f"feature values must be real numbers, got {hyp.features!r}"
                raise NonNumericFeature(f"sentence {sentence_id}, hypothesis {hyp.rank}: {message}") from None
            if not isinstance(hyp.features, tuple):
                message = f"feature values must be a tuple, got {hyp.features!r}"
                raise NonNumericFeature(f"sentence {sentence_id}, hypothesis {hyp.rank}: {message}")
            if dim is None:
                dim = count
            elif count != dim:
                raise InconsistentFeatureCount(f"sentence {sentence_id}: expected {dim} features, got {count}")
            if not finite:
                value = next(v for v in hyp.features if not math.isfinite(v))
                raise NonNumericFeature(
                    f"sentence {sentence_id}, hypothesis {hyp.rank}: "
                    f"feature value {value!r} is not finite"
                )
            key = (hyp.tokens, hyp.features)
            try:
                if key in seen:
                    continue
            except TypeError:  # the tokens are strings, so a feature value that cannot be hashed
                message = f"feature values must be real numbers, got {hyp.features!r}"
                raise NonNumericFeature(f"sentence {sentence_id}, hypothesis {hyp.rank}: {message}") from None
            seen.add(key)
            kept.append(hyp)
        sentence_refs = []
        for j, ref in enumerate(_listed(refs[sentence_id], f"refs[{sentence_id}]", Iterable)):
            tokens = tuple(ref)
            if isinstance(ref, str) or not _all_strings(tokens):
                raise MalformedLine(
                    f"sentence {sentence_id}, reference {j}: tokens must be a sequence of strings "
                    f"and not a string, got {ref!r}"
                )
            if tokens:
                sentence_refs.append(tokens)
        if not sentence_refs:
            raise NoReferences(f"sentence {sentence_id} has no non-empty reference")
        entries.append(
            SentenceEntry(sentence_id, tuple(kept), tuple(sentence_refs))
        )
    if not dim:
        raise MalformedLine(
            "the feature field is empty: hypotheses need at least one feature value"
        )
    if feature_names is None:
        names = tuple(f"f{i}" for i in range(dim))
    else:
        names = tuple(_listed(feature_names, "feature_names", object))
        if len(names) != dim:
            raise InconsistentFeatureCount(
                f"{len(names)} feature names for {dim} features"
            )
        if strange := [name for name in names if not isinstance(name, str)]:
            raise InconsistentFeatureCount(f"feature names must be strings, got {strange[0]!r}")
        if repeated := _repeated(names):
            raise InconsistentFeatureCount(f"feature names repeat: {repeated}")
    return TuningCorpus(tuple(entries), names)


def remap_sparse_ids(
    nbest: Mapping[int, Sequence[Hypothesis]],
    refs: Mapping[int, Sequence[Tokens]],
) -> tuple[dict[int, list[Hypothesis]], dict[int, list[Tokens]]]:
    """Compact sparse sentence ids into a dense 0..S-1 numbering; the maps
    are read as :func:`build_corpus` reads them."""
    if _sentence_ids(nbest, "nbest") != _sentence_ids(refs, "refs"):
        raise IdMismatch("cannot remap: N-best ids and reference ids differ")
    mapping = {old: new for new, old in enumerate(sorted(nbest))}
    new_nbest = {
        new: [replace(h, sentence_id=new) for h in _listed(nbest[old], f"nbest[{old}]", Hypothesis)]
        for old, new in mapping.items()
    }
    new_refs = {new: _listed(refs[old], f"refs[{old}]", Iterable) for old, new in mapping.items()}
    return new_nbest, new_refs


def format_nbest(corpus: TuningCorpus) -> str:
    """Serialize a corpus to the N-best wire format.

    Feature values are written with ``repr`` so a parse round-trip
    reproduces them bit-exactly; the total column carries the plain
    feature sum, which parsers ignore.
    """
    lines = []
    for entry in corpus.entries:
        for hyp in entry.hypotheses:
            feats = " ".join(
                f"{name}: {value!r}"
                for name, value in zip(corpus.feature_names, hyp.features)
            )
            total = sum(hyp.features)
            lines.append(
                f"{entry.sentence_id} {FIELD_SEP} {' '.join(hyp.tokens)} "
                f"{FIELD_SEP} {feats} {FIELD_SEP} {total!r}"
            )
    return "\n".join(lines) + "\n"


def format_references(corpus: TuningCorpus) -> list[str]:
    """Serialize references to parallel file bodies, blank-padding short rows."""
    width = max(len(entry.references) for entry in corpus.entries)
    streams = []
    for j in range(width):
        rows = [
            " ".join(entry.references[j]) if j < len(entry.references) else ""
            for entry in corpus.entries
        ]
        streams.append("\n".join(rows) + "\n")
    return streams
