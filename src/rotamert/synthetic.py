"""Deterministic synthetic tuning corpora.

Each hypothesis gets a latent quality ``q`` in [0, 1]; its tokens copy a
fraction of about ``q`` of a reference in place (the rest are replaced
by tokens that occur in no reference of that sentence, so more quality
never means fewer n-gram matches).  Feature vectors are linear mixtures
of ``q`` and Gaussian noise, with designated feature pairs reshaped to a
target sample correlation.  Closed and open splits come from disjoint
seed substreams, share one mixture (drawn by the closed split), and
never share a reference token sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Hypothesis, Tokens, TuningCorpus, build_corpus
from .errors import SpecInvalid

_MAX_RESAMPLE = 100

# Size bounds of a spec, checked before anything is allocated.  The
# 400 x 100 x 8 corpus (40,000 hypotheses) generates in about a second;
# these allow 25 times that and refuse sizes that would run for hours
# or exhaust memory.
MAX_HYPOTHESES = 1_000_000  # sentences x hypotheses
MAX_FEATURE_VALUES = 10_000_000  # sentences x hypotheses x features
MAX_VOCAB_SIZE = 100_000
MAX_REF_COUNT = 100


@dataclass(frozen=True)
class SynthSpec:
    """Shape and randomness of a generated corpus pair."""

    sentences: int
    hypotheses: int
    features: int
    correlated_pairs: tuple[tuple[int, int, float], ...] = ()
    vocab_size: int = 50
    ref_count: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sentences < 1:
            raise SpecInvalid(f"need at least one sentence, got {self.sentences}")
        if self.hypotheses < 1:
            raise SpecInvalid(f"need at least one hypothesis, got {self.hypotheses}")
        if self.features < 1:
            raise SpecInvalid(f"need at least one feature, got {self.features}")
        if self.seed < 0:
            raise SpecInvalid(f"seed must be non-negative, got {self.seed}")
        if not 2 <= self.vocab_size <= MAX_VOCAB_SIZE:
            raise SpecInvalid(
                f"vocabulary size must be between 2 and {MAX_VOCAB_SIZE}, got {self.vocab_size}"
            )
        if not 1 <= self.ref_count <= MAX_REF_COUNT:
            raise SpecInvalid(
                f"reference count must be between 1 and {MAX_REF_COUNT}, got {self.ref_count}"
            )
        hypotheses = self.sentences * self.hypotheses
        if hypotheses > MAX_HYPOTHESES:
            raise SpecInvalid(
                f"{hypotheses} hypotheses (sentences x hypotheses) exceed {MAX_HYPOTHESES}"
            )
        if hypotheses * self.features > MAX_FEATURE_VALUES:
            raise SpecInvalid(
                f"{hypotheses * self.features} feature values "
                f"(sentences x hypotheses x features) exceed {MAX_FEATURE_VALUES}"
            )
        for i, j, rho in self.correlated_pairs:
            if not (0 <= i < self.features and 0 <= j < self.features):
                raise SpecInvalid(f"correlated pair ({i}, {j}) out of range")
            if i == j:
                raise SpecInvalid(f"correlated pair ({i}, {j}) repeats a feature")
            if not -1.0 <= rho <= 1.0:
                raise SpecInvalid(f"correlation {rho} outside [-1, 1]")


def corrupt_reference(
    base: Sequence[str],
    keep_order: Sequence[int],
    replacements: Sequence[str],
    quality: float,
) -> Tokens:
    """Copy the first ``round(quality * len)`` positions of ``keep_order``
    from ``base``; fill every other position from ``replacements``.

    Sharing ``keep_order`` and ``replacements`` across hypotheses of one
    sentence makes higher quality a strict superset of kept positions.
    """
    length = len(base)
    kept = set(keep_order[: round(quality * length)])
    return tuple(
        base[p] if p in kept else replacements[p] for p in range(length)
    )


def _draw_references(
    rng: np.random.Generator, spec: SynthSpec, vocab: list[str]
) -> list[Tokens]:
    length = int(rng.integers(6, 13))
    base = tuple(vocab[int(i)] for i in rng.integers(0, spec.vocab_size, size=length))
    refs = [base]
    for _ in range(spec.ref_count - 1):
        variant = [
            vocab[int(rng.integers(0, spec.vocab_size))]
            if rng.random() < 0.15
            else tok
            for tok in base
        ]
        roll = rng.random()
        if roll < 0.3:
            variant.append(vocab[int(rng.integers(0, spec.vocab_size))])
        elif roll < 0.6 and len(variant) > 1:
            variant.pop()
        refs.append(tuple(variant))
    return refs


def _generate_split(
    spec: SynthSpec,
    seed_seq: np.random.SeedSequence,
    forbidden: frozenset[Tokens],
    mixing: np.ndarray | None = None,
) -> tuple[TuningCorpus, np.ndarray]:
    rng = np.random.default_rng(seed_seq)
    vocab = [f"w{i}" for i in range(spec.vocab_size)]
    nbest: dict[int, list[Hypothesis]] = {}
    refs_map: dict[int, list[Tokens]] = {}
    qualities = np.empty((spec.sentences, spec.hypotheses))
    tokens_by_sentence: list[list[Tokens]] = []

    for s in range(spec.sentences):
        for _ in range(_MAX_RESAMPLE):
            refs = _draw_references(rng, spec, vocab)
            if not any(r in forbidden for r in refs):
                break
        else:
            raise SpecInvalid(
                "could not draw references disjoint from the closed split; "
                "increase vocab_size"
            )
        base = refs[0]
        ref_tokens = {tok for ref in refs for tok in ref}
        junk_pool = [tok for tok in vocab if tok not in ref_tokens]
        if not junk_pool:
            junk_pool = [f"x{s}_{p}" for p in range(len(base))]
        replacements = [
            junk_pool[int(rng.integers(0, len(junk_pool)))] for _ in range(len(base))
        ]
        keep_order = [int(p) for p in rng.permutation(len(base))]
        qs = rng.uniform(0.0, 1.0, size=spec.hypotheses)
        qualities[s] = qs
        sentence_tokens = [
            corrupt_reference(base, keep_order, replacements, float(q)) for q in qs
        ]
        tokens_by_sentence.append(sentence_tokens)
        refs_map[s] = refs

    if mixing is None:
        mixing = rng.uniform(0.6, 1.5, size=spec.features) * rng.choice(
            [-1.0, 1.0], size=spec.features
        )
    flat_q = qualities.reshape(-1)
    features = (flat_q[:, None] - 0.5) * mixing[None, :]
    features = features + 0.35 * rng.standard_normal(features.shape)
    for i, j, rho in spec.correlated_pairs:
        source = features[:, i]
        sd = source.std()
        if sd == 0.0:
            standardized = np.zeros_like(source)
        else:
            standardized = (source - source.mean()) / sd
        noise = rng.standard_normal(len(source))
        features[:, j] = rho * standardized + np.sqrt(max(0.0, 1.0 - rho * rho)) * noise

    for s in range(spec.sentences):
        hyps = []
        for k in range(spec.hypotheses):
            row = features[s * spec.hypotheses + k]
            hyps.append(
                Hypothesis(
                    s, k, tokens_by_sentence[s][k], tuple(float(x) for x in row)
                )
            )
        nbest[s] = hyps
    return build_corpus(nbest, refs_map), mixing


def generate(spec: SynthSpec) -> tuple[TuningCorpus, TuningCorpus]:
    """Produce the (closed, open) corpus pair for a spec, deterministically."""
    closed_seq, open_seq = np.random.SeedSequence(spec.seed).spawn(2)
    closed, mixing = _generate_split(spec, closed_seq, frozenset())
    closed_refs = frozenset(ref for entry in closed.entries for ref in entry.references)
    opened, _ = _generate_split(spec, open_seq, closed_refs, mixing)
    return closed, opened

