import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotamert import bleu
from rotamert.bleu import corpus_stats, row_bleu, stats_blocks
from rotamert.envelope import PackedCorpus, _sweep
from rotamert.errors import NoReferences
from rotamert.synthetic import SynthSpec, generate

from instances import random_corpus, random_ray
from oracles import (
    clipped_stats_by_counting,
    first_argmax,
    flat_hulls,
    selection_error,
    sentence_rows,
    sum_rows,
)


def sentence_row(hyp, refs):
    """The statistics row of one hypothesis against its references."""
    return tuple(next(stats_blocks([((hyp,), refs)]))[0].tolist())


def row(match_n, total_n, hyp_len, ref_len):
    return (*match_n, *total_n, hyp_len, ref_len)


def packed_rows(rows_per_sentence):
    """A one-feature packed corpus holding the given statistics rows."""
    counts = [len(rows) for rows in rows_per_sentence]
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    sentence = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return PackedCorpus(
        np.zeros((len(sentence), 1)),
        offsets,
        np.array([r for rows in rows_per_sentence for r in rows], dtype=np.int64),
        sentence,
        np.arange(len(sentence), dtype=np.int64) - offsets[sentence],
    )


class TestSentenceStats:
    def test_perfect_match(self):
        ref = ("the", "cat", "sat", "on", "the", "mat")
        st = sentence_row(ref, [ref])
        assert st[0:4] == (6, 5, 4, 3)
        assert st[4:8] == (6, 5, 4, 3)
        assert st[8] == 6
        assert st[9] == 6

    def test_clipping_caps_repeated_tokens(self):
        hyp = ("the",) * 7
        ref = ("the", "cat", "is", "on", "the", "mat")
        st = sentence_row(hyp, [ref])
        assert st[0] == 2
        assert st[4:8] == (7, 6, 5, 4)
        assert st[1:4] == (0, 0, 0)

    def test_clipping_takes_max_over_references(self):
        hyp = ("the", "the", "the")
        refs = [("the", "cat"), ("the", "the", "dog")]
        st = sentence_row(hyp, refs)
        assert st[0] == 2
        assert st[1] == 1  # "the the" occurs in the second reference

    def test_short_hypothesis_has_zero_high_order_totals(self):
        st = sentence_row(("a", "b"), [("a", "b")])
        assert st[4:8] == (2, 1, 0, 0)
        assert st[0:4] == (2, 1, 0, 0)

    def test_no_references_raises(self):
        with pytest.raises(NoReferences):
            sentence_row(("a",), [])

    @staticmethod
    def effective_length(hyp_len, ref_lens):
        return sentence_row(("h",) * hyp_len, [("r",) * n for n in ref_lens])[9]

    def test_effective_length_is_closest(self):
        assert self.effective_length(10, [6, 9, 12]) == 9
        assert self.effective_length(10, [6, 13]) == 13

    def test_effective_length_tie_prefers_shorter(self):
        assert self.effective_length(10, [9, 11]) == 9
        assert self.effective_length(10, [11, 9]) == 9


class TestStatsArithmetic:
    # Interval rows are the first interval's row plus integer deltas.
    def test_add_then_subtract_restores(self):
        a = row((1, 2, 3, 4), (5, 6, 7, 8), 9, 10)
        b = row((4, 3, 2, 1), (8, 7, 6, 5), 1, 2)
        zero = (0,) * 10
        # Sentence 1 swaps from zero to b at 0 and back to zero at 1.
        packed = packed_rows([[a], [zero, b, zero]])
        hulls = [((), (0,)), ((0.0, 1.0), (0, 1, 2))]
        _, rows = _sweep(flat_hulls(hulls, packed.offsets.tolist()), packed.stats)
        start, added, restored = map(tuple, rows.tolist())
        assert added == tuple(x + y for x, y in zip(a, b))
        assert restored == a
        assert start == a

    def test_aggregate_matches_manual_sum(self):
        a = row((1, 0, 0, 0), (2, 1, 0, 0), 2, 3)
        b = row((2, 1, 0, 0), (3, 2, 1, 0), 3, 3)
        packed = packed_rows([[a], [b]])
        _, rows = _sweep(flat_hulls([((), (0,))] * 2, packed.offsets.tolist()), packed.stats)
        (agg,) = map(tuple, rows.tolist())
        assert agg == row((3, 1, 0, 0), (5, 3, 1, 0), 5, 6)


class TestCorpusBleu:
    def test_perfect_corpus_scores_one(self):
        st = row((6, 5, 4, 3), (6, 5, 4, 3), 6, 6)
        val = row_bleu(st)
        assert val.bleu == 1.0
        assert val.error == 0.0

    def test_zero_match_at_any_order_scores_zero(self):
        st = row((6, 5, 0, 3), (6, 5, 4, 3), 6, 6)
        assert row_bleu(st).bleu == 0.0
        assert row_bleu(st).error == 1.0

    def test_zero_total_scores_zero(self):
        st = row((3, 2, 1, 0), (3, 2, 1, 0), 3, 3)
        assert row_bleu(st).bleu == 0.0

    def test_empty_stats_score_zero(self):
        assert row_bleu((0,) * 10).bleu == 0.0

    def test_matches_direct_formula(self):
        st = row((12, 8, 4, 3), (13, 10, 7, 5), 13, 14)
        expected = math.exp(1.0 - 14 / 13) * math.exp(
            (math.log(12 / 13) + math.log(8 / 10) + math.log(4 / 7) + math.log(3 / 5))
            / 4.0
        )
        val = row_bleu(st)
        assert val.bleu == pytest.approx(expected, abs=1e-15)
        assert f"{val.bleu * 100.0:.2f}" == "65.68"

    def test_brevity_penalty_only_when_shorter(self):
        short = row((4, 3, 2, 1), (4, 3, 2, 1), 4, 8)
        longer = row((4, 3, 2, 1), (4, 3, 2, 1), 4, 3)
        assert row_bleu(short).bleu == pytest.approx(math.exp(1.0 - 2.0))
        assert row_bleu(longer).bleu == 1.0

    def test_error_complements_bleu(self):
        st = row((10, 7, 5, 2), (12, 11, 10, 9), 12, 11)
        val = row_bleu(st)
        assert val.error + val.bleu == 1.0
        assert 0.0 <= val.error <= 1.0

    def test_sentence_order_does_not_matter(self):
        rng = np.random.default_rng(7)
        stats = [
            row(
                tuple(int(x) for x in rng.integers(1, 5, 4)),
                tuple(int(x) for x in rng.integers(5, 9, 4)),
                int(rng.integers(4, 12)),
                int(rng.integers(4, 12)),
            )
            for _ in range(30)
        ]
        direct = row_bleu(sum_rows(stats))
        order = rng.permutation(len(stats))
        shuffled = row_bleu(sum_rows(stats[i] for i in order))
        assert shuffled == direct


class TestCorpusLevelHelpers:
    def test_hypothesis_stats_shape(self):
        corpus, _ = random_corpus(3)
        stats = corpus_stats(corpus)
        assert stats.shape == (sum(len(entry.hypotheses) for entry in corpus.entries), 10)
        assert stats.dtype == np.int64
        table = sentence_rows(PackedCorpus.of(corpus))
        assert len(table) == corpus.size
        for entry, rows in zip(corpus.entries, table):
            assert len(rows) == len(entry.hypotheses)

    def test_selection_error_equals_direct_aggregation(self):
        corpus, rng = random_corpus(11)
        packed = PackedCorpus.of(corpus)
        chosen = [
            int(rng.integers(0, len(entry.hypotheses)))
            for entry in corpus.entries
        ]
        direct = row_bleu(
            sum_rows(
                sentence_row(entry.hypotheses[k].tokens, entry.references)
                for entry, k in zip(corpus.entries, chosen)
            )
        )
        assert selection_error(packed, chosen) == direct

    def test_shared_reference_maxima_match_per_hypothesis_stats(self):
        # corpus_stats scores whole blocks of sentences at once;
        # every row must equal scoring that hypothesis on its own.
        for seed in range(40):
            corpus, _ = random_corpus(seed)
            table = sentence_rows(PackedCorpus.of(corpus))
            for s, entry in enumerate(corpus.entries):
                for k, hyp in enumerate(entry.hypotheses):
                    expected = sentence_row(hyp.tokens, entry.references)
                    assert table[s][k] == expected, f"seed {seed} sentence {s} hyp {k}"

    def test_hypothesis_stats_match_counting_oracle(self):
        # An independent re-count: per-order Counters, min(hyp, max over refs).
        for seed in range(40):
            corpus, _ = random_corpus(seed)
            table = sentence_rows(PackedCorpus.of(corpus))
            for s, entry in enumerate(corpus.entries):
                for k, hyp in enumerate(entry.hypotheses):
                    expected = clipped_stats_by_counting(hyp.tokens, entry.references)
                    assert table[s][k] == expected, f"seed {seed} sentence {s} hyp {k}"

    def test_packed_argmax_error_equals_selection_error(self):
        # All-zero weights tie every hypothesis, so the lowest rank must win.
        for seed in range(40):
            corpus, rng = random_corpus(seed)
            packed = PackedCorpus.of(corpus)
            w, _ = random_ray(rng, corpus.feature_dim)
            for weights in (w, (0.0,) * corpus.feature_dim):
                scores = packed.project(weights)
                expected = selection_error(packed, first_argmax(packed, scores))
                got = packed.argmax_error(scores)
                assert float.hex(got.error) == float.hex(expected.error), f"seed {seed}"
                assert float.hex(got.bleu) == float.hex(expected.bleu), f"seed {seed}"


def _kernel_rows(sentences, **kwargs):
    return np.concatenate(
        [np.zeros((0, 10), dtype=np.int64), *stats_blocks(sentences, **kwargs)]
    ).tolist()


def _oracle_rows(sentences):
    return [
        list(clipped_stats_by_counting(tuple(hyp), refs))
        for hyps, refs in sentences
        for hyp in hyps
    ]


def _sentences(corpus):
    return [([h.tokens for h in e.hypotheses], e.references) for e in corpus.entries]


def _synth_corpora():
    for seed in range(3):
        spec = SynthSpec(sentences=15, hypotheses=12, features=2, vocab_size=20, seed=seed)
        yield from generate(spec)


def _block_sentences(vocab):
    """Sentences over ``vocab``: short and long hypotheses, short and longer references."""

    def seqs(low, high):
        return st.lists(st.sampled_from(vocab), min_size=low, max_size=high).map(tuple)

    return st.lists(
        st.tuples(
            st.lists(st.one_of(seqs(0, 3), seqs(4, 12)), min_size=1, max_size=4),
            st.lists(st.one_of(seqs(0, 3), seqs(0, 8)), min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=5,
    )


class TestStatsKernel:
    # One to three token types repeat n-grams at every order and share
    # them across the sentences of a block; long hypotheses against short
    # references stop matching at order 1 or 2, so the kernel runs out of
    # n-grams that can match before order 4 while total_4 is positive.
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.sampled_from(["a", "ab", "abc"]).flatmap(_block_sentences))
    @example([([("a", "b") * 3, ()], [("a", "b"), ("b",)]), ([("b", "a", "b", "b")], [()])])
    def test_rows_match_counting_oracle_on_tiny_vocabularies(self, sentences):
        expected = _oracle_rows(sentences)
        assert _kernel_rows(sentences) == expected
        assert _kernel_rows(sentences, _block_tokens=1) == expected

    @pytest.mark.parametrize("ties", [1, 3, 1000])
    def test_unique_key_sort_equals_the_stable_sort(self, ties, monkeypatch):
        kinds = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            kinds.append(kwargs.get("kind"))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        n = 4096
        draws = np.random.default_rng(ties).integers(0, ties, n)
        # (key.max() + 1) * n below, at and above 2**63: the unique keys
        # still fit in int64 only below it.
        for top, kind in ((2**63 // n - 1, None), (2**63 // n, "stable"), (2**63 // n + 1, "stable")):
            key = top - 1 - draws
            key[0] = top - 1
            kinds.clear()
            assert bleu._stable_argsort(key).tolist() == argsort(key, kind="stable").tolist()
            assert kinds[0] == kind
        key = np.array([], dtype=np.int64)
        assert bleu._stable_argsort(key).tolist() == []

    def test_rows_match_counting_oracle(self):
        corpora = [random_corpus(seed)[0] for seed in range(40)] + list(_synth_corpora())
        for i, corpus in enumerate(corpora):
            expected = _oracle_rows(_sentences(corpus))
            assert corpus_stats(corpus).tolist() == expected, f"corpus {i}"

    def test_rows_do_not_depend_on_block_boundaries(self):
        corpora = [random_corpus(seed)[0] for seed in range(40)] + list(_synth_corpora())
        for i, corpus in enumerate(corpora):
            sentences = _sentences(corpus)
            whole = _kernel_rows(sentences)
            one_by_one = [row for sentence in sentences for row in _kernel_rows([sentence])]
            assert one_by_one == whole, f"corpus {i}"
            for block_tokens in (1, 40, 333):
                got = _kernel_rows(sentences, _block_tokens=block_tokens)
                assert got == whole, f"corpus {i}, blocks of {block_tokens}"

    @pytest.mark.parametrize(
        "hyps, refs",
        [
            # Shorter than NGRAM_ORDER, down to the empty hypothesis of a blank score line.
            ([(), ("a",), ("a", "b"), ("b", "a", "b")], [("a", "b", "a", "b"), ("b",)]),
            # A single reference.
            ([("x", "y", "z", "x", "y"), ("z", "z")], [("x", "y", "z", "z")]),
            # Repeated n-grams above their reference maxima, at every order.
            ([("a",) * 9, ("a", "b") * 5], [("a", "a", "a", "b"), ("a", "b", "a", "b", "a", "a")]),
            # Non-ASCII tokens; composed and decomposed "e acute" are different tokens.
            (
                [("größe", "日本", "語", "\u00e9", "🙂"), ("e\u0301", "日本", "語")],
                [("日本", "語", "größe"), ("\u00e9", "🙂", "日本", "語")],
            ),
            # One reference is empty; the closest length may be 0.
            ([("q",), ()], [(), ("q", "r", "s")]),
        ],
    )
    def test_edge_cases_match_counting_oracle(self, hyps, refs):
        sentences = [(hyps, refs), ([("a", "b", "c", "d")], [("a", "b", "c", "d")])]
        assert _kernel_rows(sentences) == _oracle_rows(sentences)
        assert _kernel_rows(sentences, _block_tokens=1) == _oracle_rows(sentences)

    def test_repeated_ngram_is_clipped_to_reference_maximum(self):
        st = sentence_row(("a",) * 6, [("a", "a", "b"), ("a", "a", "a", "c")])
        assert st[0:4] == (3, 2, 1, 0)
        assert st[4:8] == (6, 5, 4, 3)
        assert st[9] == 4

    def test_empty_hypothesis_row(self):
        st = sentence_row((), [("a", "b", "c"), ("d", "e")])
        assert st == row((0, 0, 0, 0), (0, 0, 0, 0), 0, 2)

    def test_sentence_without_references_raises(self):
        sentences = [([("a",)], [("a",)]), ([("b",)], [])]
        with pytest.raises(NoReferences):
            _kernel_rows(sentences)

    def test_memory_is_bounded_by_the_block_not_the_corpus(self):
        # tracemalloc sees numpy's buffers; the inputs exist before tracing starts.
        peaks = []
        for size in (4_000, 16_000):
            rng = np.random.default_rng(size)
            vocab = [f"w{i}" for i in range(50)]
            words = rng.integers(0, len(vocab), (size, 5, 12)).tolist()
            lengths = rng.integers(6, 13, (size, 5)).tolist()
            sentences = [
                (
                    [tuple(vocab[i] for i in ids[:n]) for ids, n in zip(seqs[:1], lens[:1])],
                    [tuple(vocab[i] for i in ids[:n]) for ids, n in zip(seqs[1:], lens[1:])],
                )
                for seqs, lens in zip(words, lengths)
            ]
            tracemalloc.start()
            try:
                total = np.zeros(10, dtype=np.int64)
                for rows in stats_blocks(sentences):
                    total += rows.sum(axis=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert total[8] == sum(lens[0] for lens in lengths)
        assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks
