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

Each format has one reader, which checks it: :func:`read_nbest` for
N-best lists and ``bleu.reference_columns`` for references, both into
columns of one ``bleu.Vocabulary`` that ``PackedCorpus.pack`` packs.
:func:`parse_nbest` and :func:`parse_references` are views of them, and
:func:`build_corpus` checks maps built by hand.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .bleu import Column, Vocabulary, reference_columns
from .errors import (
    ConfigError,
    EmptyCorpus,
    IdMismatch,
    InconsistentFeatureCount,
    MalformedLine,
    NoReferences,
    NonNumericFeature,
    as_instance,
)

FIELD_SEP = "|||"

Tokens = tuple[str, ...]


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


class Nbest(NamedTuple):
    """An N-best list as columns, its rows sorted stably by sentence id."""

    ids: list[int]  # the sentence id of each row
    hyps: Column  # each row's tokens as ids
    features: np.ndarray  # float64 (rows, M)
    names: list[str] | None  # from the first labeled line; None when no line carried labels


def read_nbest(lines: Sequence[str], source: str, vocabulary: Vocabulary) -> Nbest:
    """Read N-best wire lines into columns, tokens as ids of ``vocabulary``.

    Lines are checked in file order, and a fault names ``source`` and the
    line.  Rows keep their file order within each sentence: their rank.
    """
    ids: list[int] = []
    token_fields: list[str] = []
    values = array("d")
    names: list[str] | None = None
    first_field: list[str] = []  # the feature field of the first labeled line
    expected: int | None = None
    for lineno, line in enumerate(lines, start=1):
        parts = line.rstrip("\n").split(FIELD_SEP)
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
        if not parts[1].strip():
            raise MalformedLine(f"{source}:{lineno}: empty hypothesis")
        field = parts[2].split()
        features: list[float] = []
        for tok in field:
            if tok[-1] == ":" and tok != ":":  # _is_label(tok), inline for speed
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
            features.append(value)
        values.extend(features)
        count = len(features)
        if expected is None:
            expected = count
        elif count != expected:
            raise InconsistentFeatureCount(
                f"{source}:{lineno}: expected {expected} features, got {count}"
            )
        if len(field) != count:  # labeled
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
        ids.append(sentence_id)
        token_fields.append(parts[1])
    order = sorted(range(len(ids)), key=ids.__getitem__)
    features = np.frombuffer(values).reshape(len(ids), expected or 0)[order]
    hyps = vocabulary.column([token_fields[i] for i in order], str.split)
    return Nbest([ids[i] for i in order], hyps, features, names)


def _token_lines(column: Column, vocabulary: Vocabulary) -> list[Tokens]:
    """The lines of ``column`` as token tuples, each token the one ``str`` that ``vocabulary`` keys."""
    tokens = np.array(list(vocabulary), dtype=object)[column.tokens].tolist()
    ends = np.cumsum(column.lengths).tolist()
    return [tuple(tokens[start:end]) for start, end in zip([0, *ends], ends)]


def parse_nbest(
    lines: Iterable[str], source: str = "<nbest>"
) -> tuple[dict[int, list[Hypothesis]], list[str] | None]:
    """Parse N-best wire lines into ``{sentence_id: [Hypothesis, ...]}``, and the feature names.

    A view of :func:`read_nbest`; ``lines`` is an iterable of strings,
    read at once.  Equal tokens share one ``str`` per call.
    """
    vocabulary = Vocabulary()
    nbest = read_nbest(_listed(lines, "lines", str), source, vocabulary)
    by_id: dict[int, list[Hypothesis]] = {}
    for sentence_id, tokens, features in zip(
        nbest.ids, _token_lines(nbest.hyps, vocabulary), nbest.features.tolist()
    ):
        bucket = by_id.setdefault(sentence_id, [])
        bucket.append(Hypothesis(sentence_id, len(bucket), tokens, tuple(features)))
    return by_id, nbest.names


def parse_references(
    streams: Sequence[Iterable[str]], sources: Sequence[str] | None = None
) -> dict[int, list[Tokens]]:
    """Read parallel reference files into ``{sentence_id: [tokens, ...]}``, blank lines skipped.

    A view of ``bleu.reference_columns``; each stream is an iterable of
    strings and not a string.  Equal tokens share one ``str`` per call.
    """
    streams = [_listed(stream, "a reference stream", str) for stream in _listed(streams, "streams", object)]
    vocabulary = Vocabulary()
    columns = reference_columns(streams, sources, vocabulary)
    rows = zip(*(_token_lines(column, vocabulary) for column in columns))
    return {i: [tokens for tokens in row if tokens] for i, row in enumerate(rows)}


def _sentence_ids(ids: Mapping[int, object], what: str) -> set[int]:
    """The keys of the mapping ``ids``, which must all be integers."""
    if strange := [i for i in as_instance(ids, Mapping, what) if not isinstance(i, numbers.Integral)]:
        raise IdMismatch(f"{what} sentence ids must be integers, got {strange[0]!r}")
    return set(ids)


def _check_ids(nbest_ids: set[int], ref_ids: set[int]) -> int:
    """N-best and reference sentence ids, which must be one dense set ``0..S-1``; returns ``S``."""
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
    return size


def _check_feature_dim(dim: int | None) -> None:
    """Hypotheses of ``dim`` feature values, which must be at least one."""
    if not dim:
        raise MalformedLine("the feature field is empty: hypotheses need at least one feature value")


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
    that is not itself a string.  Every hypothesis is kept, in order,
    exact duplicates too.  Given feature names must
    be strings, one per feature, and must not repeat.  The result is
    stable under a second application of this function to its own maps.
    Both maps hold iterables, of :class:`Hypothesis` and of token sequences.
    """
    size = _check_ids(_sentence_ids(nbest, "nbest"), _sentence_ids(refs, "refs"))
    dim: int | None = None
    entries: list[SentenceEntry] = []
    for sentence_id in range(size):
        hyps = _listed(nbest[sentence_id], f"nbest[{sentence_id}]", Hypothesis)
        if not hyps:
            raise EmptyCorpus(f"sentence {sentence_id} has no hypotheses")
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
            try:
                hash(hyp.features)
            except TypeError:  # the values sum and compare as finite, yet one cannot be hashed
                message = f"feature values must be real numbers, got {hyp.features!r}"
                raise NonNumericFeature(f"sentence {sentence_id}, hypothesis {hyp.rank}: {message}") from None
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
            SentenceEntry(sentence_id, tuple(hyps), tuple(sentence_refs))
        )
    _check_feature_dim(dim)
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


def reference_slots(corpus: TuningCorpus) -> list[tuple[Tokens, ...]]:
    """Reference ``j`` of every sentence, for each ``j``; ``()`` where a sentence has fewer."""
    # At least one slot: a hand-built corpus without references packs blank, which stats_blocks refuses.
    width = max(1, max(len(entry.references) for entry in corpus.entries))
    return list(zip(*(entry.references + ((),) * (width - len(entry.references)) for entry in corpus.entries)))


def format_references(corpus: TuningCorpus) -> list[str]:
    """Serialize references to parallel file bodies, one per slot; a padding ``()`` is a blank line."""
    return ["".join(" ".join(ref) + "\n" for ref in slot) for slot in reference_slots(corpus)]
