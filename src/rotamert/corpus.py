"""N-best lists, references, and the tuning corpus built from them.

The N-best wire format is one hypothesis per line::

    id ||| token token ... ||| featval featval ... ||| total

``id`` is a non-negative sentence index, the feature field holds one
finite real per feature (optionally preceded by ``name:`` labels, which
are recorded once and stripped), and the trailing ``total`` is parsed
and ignored.  References come as parallel plain-text files, one token
sequence per line; a blank line means "this file contributes no
reference for that sentence".
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .errors import (
    EmptyCorpus,
    IdMismatch,
    InconsistentFeatureCount,
    LengthMismatch,
    MalformedLine,
    NoReferences,
    NonNumericFeature,
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

    A label followed by a single value keeps the bare name; a label
    covering several values gets a positional suffix per value.  A value
    before the first label is named by its index.
    """
    slots: list[tuple[str | None, int]] = []  # (label, position within label group)
    label: str | None = None
    group_pos = 0
    for tok in tokens:
        if _is_label(tok):
            label, group_pos = tok[:-1], 0
        else:
            slots.append((label, group_pos))
            group_pos += 1
    sizes = Counter(lab for lab, _ in slots if lab is not None)
    return [
        f"f{idx}" if lab is None else lab if sizes[lab] == 1 else f"{lab}{pos}"
        for idx, (lab, pos) in enumerate(slots)
    ]


def parse_nbest(
    lines: Iterable[str], source: str = "<nbest>"
) -> tuple[dict[int, list[Hypothesis]], list[str] | None]:
    """Parse N-best wire lines into ``{sentence_id: [Hypothesis, ...]}``.

    Ranks are assigned by file order within each id.  Returns the parsed
    map together with the feature names recorded from the first labeled
    line (``None`` when no line carried labels).
    """
    by_id: dict[int, list[Hypothesis]] = {}
    names: list[str] | None = None
    expected: int | None = None
    for lineno, raw in enumerate(lines, start=1):
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
        tokens = tuple(parts[1].split())
        if not tokens:
            raise MalformedLine(f"{source}:{lineno}: empty hypothesis")
        values: list[float] = []
        labeled = False
        for tok in parts[2].split():
            if _is_label(tok):
                labeled = True
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
        if names is None and labeled:
            names = _feature_names(parts[2].split())
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


def parse_references(
    streams: Sequence[Iterable[str]], sources: Sequence[str] | None = None
) -> dict[int, list[Tokens]]:
    """Read parallel reference files into ``{sentence_id: [tokens, ...]}``.

    All streams must have the same line count; blank lines are skipped
    for that sentence only.
    """
    if sources is None:
        sources = [f"<refs[{j}]>" for j in range(len(streams))]
    if not streams:
        raise NoReferences("no reference streams given")
    materialized = [list(stream) for stream in streams]
    counts = {len(lines) for lines in materialized}
    if len(counts) > 1:
        detail = ", ".join(
            f"{src}: {len(lines)}" for src, lines in zip(sources, materialized)
        )
        raise LengthMismatch(f"reference files disagree on line counts ({detail})")
    size = counts.pop()
    refs: dict[int, list[Tokens]] = {}
    for i in range(size):
        per_sentence: list[Tokens] = []
        for lines in materialized:
            tokens = tuple(lines[i].split())
            if tokens:
                per_sentence.append(tokens)
        if not per_sentence:
            raise NoReferences(f"sentence {i} has no non-blank reference")
        refs[i] = per_sentence
    return refs


def build_corpus(
    nbest: Mapping[int, Sequence[Hypothesis]],
    refs: Mapping[int, Sequence[Tokens]],
    feature_names: Sequence[str] | None = None,
) -> TuningCorpus:
    """Join parsed N-best lists with references into a validated corpus.

    Sentence ids must line up and be dense ``0..S-1``.  Hypotheses that
    duplicate another one exactly (same tokens and same features) are
    dropped, keeping the first occurrence.  The result is stable under a
    second application of this function to its own maps.
    """
    nbest_ids = set(nbest)
    ref_ids = set(refs)
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
        hyps = list(nbest[sentence_id])
        if not hyps:
            raise EmptyCorpus(f"sentence {sentence_id} has no hypotheses")
        seen: set[tuple[Tokens, tuple[float, ...]]] = set()
        kept: list[Hypothesis] = []
        for hyp in hyps:
            if hyp.sentence_id != sentence_id:
                raise IdMismatch(
                    f"hypothesis tagged {hyp.sentence_id} filed under {sentence_id}"
                )
            if not hyp.tokens:
                raise MalformedLine(f"sentence {sentence_id}: empty hypothesis")
            if dim is None:
                dim = len(hyp.features)
            elif len(hyp.features) != dim:
                raise InconsistentFeatureCount(
                    f"sentence {sentence_id}: expected {dim} features, "
                    f"got {len(hyp.features)}"
                )
            key = (hyp.tokens, hyp.features)
            if key in seen:
                continue
            seen.add(key)
            kept.append(hyp)
        sentence_refs = [tuple(r) for r in refs[sentence_id] if tuple(r)]
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
        names = tuple(feature_names)
        if len(names) != dim:
            raise InconsistentFeatureCount(
                f"{len(names)} feature names for {dim} features"
            )
    return TuningCorpus(tuple(entries), names)


def remap_sparse_ids(
    nbest: Mapping[int, Sequence[Hypothesis]],
    refs: Mapping[int, Sequence[Tokens]],
) -> tuple[dict[int, list[Hypothesis]], dict[int, list[Tokens]]]:
    """Compact sparse sentence ids into a dense 0..S-1 numbering."""
    if set(nbest) != set(refs):
        raise IdMismatch("cannot remap: N-best ids and reference ids differ")
    mapping = {old: new for new, old in enumerate(sorted(nbest))}
    new_nbest = {
        mapping[old]: [replace(h, sentence_id=mapping[old]) for h in hyps]
        for old, hyps in nbest.items()
    }
    new_refs = {mapping[old]: list(rs) for old, rs in refs.items()}
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
