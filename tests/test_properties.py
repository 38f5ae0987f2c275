"""Invariants of the exact line search, checked with ``hypothesis``.

Corpora are small and integer-valued, so every projected score is
exact and each property holds bit for bit: the ``repr`` of the
:class:`LineSearchResult` must not change.  Examples are derandomized
and bounded so that the suite is deterministic and fast.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from rotamert.corpus import Hypothesis, build_corpus
from rotamert.envelope import PackedCorpus, line_search

PROPERTY_SETTINGS = settings(
    derandomize=True, max_examples=60, deadline=None, database=None
)

tokens = st.lists(st.sampled_from("ab"), min_size=4, max_size=8).map(tuple)
small_int = st.integers(-4, 4)
features = st.tuples(small_int, small_int)
sentence = st.tuples(
    st.lists(st.tuples(tokens, features), min_size=1, max_size=6),
    st.lists(tokens, min_size=1, max_size=2),
)


def search(sentences, w, d):
    """``repr`` of line_search on sentences given as (hypotheses, references)."""
    nbest = {
        s: [
            Hypothesis(s, k, toks, tuple(float(x) for x in feats))
            for k, (toks, feats) in enumerate(hyps)
        ]
        for s, (hyps, _) in enumerate(sentences)
    }
    refs = {s: list(references) for s, (_, references) in enumerate(sentences)}
    corpus = build_corpus(nbest, refs)
    return repr(line_search(PackedCorpus.of(corpus), w, d))


@PROPERTY_SETTINGS
@given(
    st.lists(sentence, min_size=1, max_size=5),
    st.tuples(small_int, small_int),
    features.filter(lambda d: d != (0, 0)),
    st.randoms(use_true_random=False),
)
def test_permuting_sentences_changes_nothing(sentences, w, d, random):
    shuffled = list(sentences)
    random.shuffle(shuffled)
    assert search(shuffled, w, d) == search(sentences, w, d)


@PROPERTY_SETTINGS
@given(
    st.lists(sentence, min_size=1, max_size=5),
    small_int,
    st.data(),
)
def test_appending_a_dominated_hypothesis_changes_nothing(sentences, c, data):
    # Along w = (1, c), d = (0, 1) a hypothesis (x, y) scores the line
    # with intercept x + c*y and slope y.  The new line's slope lies
    # between two existing lines' slopes and its intercept is strictly
    # below both, so it is under one of them at every gamma.
    w, d = (float(1), float(c)), (0.0, 1.0)
    s = data.draw(st.integers(0, len(sentences) - 1))
    hyps, references = sentences[s]
    first, second = (
        hyps[data.draw(st.integers(0, len(hyps) - 1))][1] for _ in range(2)
    )
    low, high = sorted((first[1], second[1]))
    slope = data.draw(st.integers(low, high))
    lines = [feats[0] + c * feats[1] for feats in (first, second)]
    intercept = min(lines) - data.draw(st.integers(1, 3))
    extra = (data.draw(tokens), (intercept - c * slope, slope))
    grown = list(sentences)
    grown[s] = ([*hyps, extra], references)
    assert search(grown, w, d) == search(sentences, w, d)


@PROPERTY_SETTINGS
@given(
    st.lists(sentence, min_size=1, max_size=5),
    st.tuples(small_int, small_int),
    features.filter(lambda d: d != (0, 0)),
    st.data(),
)
def test_repeating_features_at_a_higher_rank_changes_nothing(sentences, w, d, data):
    s = data.draw(st.integers(0, len(sentences) - 1))
    hyps, references = sentences[s]
    _, feats = hyps[data.draw(st.integers(0, len(hyps) - 1))]
    grown = list(sentences)
    grown[s] = ([*hyps, (data.draw(tokens), feats)], references)
    assert search(grown, w, d) == search(sentences, w, d)
