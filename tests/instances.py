"""Seeded random test instances.

Small corpora with short token sequences over a tiny vocabulary keep
individual checks fast while still exercising ties, duplicate n-grams,
and sentences whose hypotheses never match a reference.
"""

from __future__ import annotations

import numpy as np

from rotamert.corpus import Hypothesis, build_corpus
from rotamert.envelope import PackedCorpus, ScoreLine, project_lines


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
    lines_per_sentence = [
        project_lines(entry, w, d) for entry in corpus.entries
    ]
    return corpus, PackedCorpus.of(corpus), lines_per_sentence, w, d


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
        ScoreLine(float(intercepts[i]), float(slopes[i]), i)
        for i in range(count)
    ]
