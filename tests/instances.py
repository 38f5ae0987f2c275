"""Seeded random test instances, and the frozen adversarial fixture.

Small corpora with short token sequences over a tiny vocabulary keep
individual checks fast while still exercising ties, duplicate n-grams,
and sentences whose hypotheses never match a reference.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from rotamert.bleu import Vocabulary, stats_blocks
from rotamert.corpus import Hypothesis, build_corpus, parse_nbest, parse_references
from rotamert.envelope import LineSearchResult, PackedCorpus, line_search

DATA = Path(__file__).parent / "data"


class Line(NamedTuple):
    """Score of one hypothesis along a search ray."""

    intercept: float
    slope: float
    hyp_index: int


def random_corpus(seed, max_sentences=20, max_hyps=16, max_features=5, min_features=1):
    rng = np.random.default_rng(seed)
    sentences = int(rng.integers(1, max_sentences + 1))
    dim = int(rng.integers(min_features, max_features + 1))
    vocab = [f"t{i}" for i in range(12)]

    def draw_tokens():
        length = int(rng.integers(3, 10))
        picks = rng.integers(0, len(vocab), length)
        return tuple([vocab[i] for i in picks.tolist()])

    nbest = {}
    refs = {}
    for s in range(sentences):
        hyps = []
        for k in range(int(rng.integers(1, max_hyps + 1))):
            feats = tuple(rng.normal(0.0, 2.0, dim).tolist())
            hyps.append(Hypothesis(s, k, draw_tokens(), feats))
        nbest[s] = hyps
        refs[s] = [draw_tokens() for _ in range(int(rng.integers(1, 4)))]
    return build_corpus(nbest, refs), rng


def token_columns(sentences):
    """The feeder's input for ``(hypotheses, references)`` sentences of token sequences.

    Hypotheses and references become id columns of one vocabulary;
    reference column ``j`` holds each sentence's reference ``j``, or
    ``()`` (no reference) where a sentence has fewer.
    """
    vocabulary = Vocabulary()
    hyps = vocabulary.column([hyp for sentence_hyps, _ in sentences for hyp in sentence_hyps], tuple)
    width = max((len(sentence_refs) for _, sentence_refs in sentences), default=0)
    refs = [
        vocabulary.column([r[j] if j < len(r) else () for _, r in sentences], tuple) for j in range(width)
    ]
    return hyps, [len(sentence_hyps) for sentence_hyps, _ in sentences], refs


def kernel_rows(sentences):
    """Statistics rows of every hypothesis of ``sentences``, by ``bleu.stats_blocks``, as lists of ints."""
    blocks = stats_blocks(*token_columns(list(sentences)))
    return np.concatenate([np.zeros((0, 10), dtype=np.int64), *blocks]).tolist()


def counted(items, read):
    """``items`` one at a time, each appended to the list ``read`` as it is handed out."""
    for item in items:
        read.append(item)
        yield item


def pack_rows(features, counts, stats):
    """A PackedCorpus of the given rows, ``counts[s]`` of them in sentence ``s``."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    sentence = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    names = tuple(f"f{j}" for j in range(features.shape[1]))
    return PackedCorpus(features, offsets, stats, sentence, names)


def row_ranks(packed):
    """Each row's rank within its sentence, from the pack's offsets."""
    return np.arange(len(packed.sentence), dtype=np.int64) - packed.offsets[packed.sentence]


def random_ray(rng, dim):
    """A starting point and a non-zero search direction."""
    w = tuple(float(x) for x in rng.normal(0.0, 1.0, dim))
    while True:
        d = tuple(float(x) for x in rng.normal(0.0, 1.0, dim))
        if any(v != 0.0 for v in d):
            return w, d


def ray_instance(seed, **kwargs):
    """Corpus, its packed view, and per-sentence score lines along one random ray."""
    corpus, rng = random_corpus(seed, **kwargs)
    w, d = random_ray(rng, corpus.feature_dim)
    packed = PackedCorpus.of(corpus)
    lines = list(
        map(Line, packed.project(w).tolist(), packed.project(d).tolist(), row_ranks(packed).tolist())
    )
    bounds = packed.offsets.tolist()
    lines_per_sentence = [lines[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return corpus, packed, lines_per_sentence, w, d


def search(packed, w, d):
    """The line search on ``packed`` from weights ``w`` along the dense direction ``d``."""
    return line_search(packed, [LineSearchResult.at(packed, w)], [packed.plan(enumerate(d))])[0]


def random_lines(seed, max_lines=16):
    """Score lines alone, including exact slope and intercept ties."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, max_lines + 1))
    slopes = rng.normal(0.0, 2.0, count)
    intercepts = rng.normal(0.0, 2.0, count)
    if count >= 4 and rng.random() < 0.5:
        slopes[1] = slopes[0]
        if rng.random() < 0.5:
            intercepts[1] = intercepts[0]
    if count >= 6 and rng.random() < 0.3:
        slopes[3] = slopes[2]
    return [
        Line(float(intercepts[i]), float(slopes[i]), i)
        for i in range(count)
    ]


def _data_text(name):
    return (DATA / name).read_text(encoding="utf-8")


def adversarial_instance():
    """A tiny two-feature corpus on which plain coordinate descent stalls.

    Axis-aligned sweeps from the certified starting weights converge to a
    provably suboptimal selection; a tilted first axis escapes to the
    global optimum.  The instance and its certified scores are frozen
    files under ``data/`` (see :func:`adversarial_certificate`).
    """
    by_id, names = parse_nbest(
        _data_text("adversarial.nbest").splitlines(), source="adversarial.nbest"
    )
    refs = parse_references(
        [_data_text("adversarial.ref").splitlines()], sources=["adversarial.ref"]
    )
    return build_corpus(by_id, refs, names)


def adversarial_certificate():
    """Certified values frozen next to the instance: starting weights,
    the stalled BLEU of plain descent, the exhaustive-scan optimum, and
    the alpha expected to reach it."""
    return json.loads(_data_text("adversarial.json"))
