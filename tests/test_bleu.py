import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotamert import bleu
from rotamert.bleu import Vocabulary, reference_columns, row_bleu, stats_blocks
from rotamert.corpus import Hypothesis, build_corpus, reference_slots
from rotamert.envelope import PackedCorpus, _sweep
from rotamert.errors import NoReferences
from rotamert.synthetic import SynthSpec, generate

from instances import kernel_rows, pack_rows, random_corpus, random_ray, token_columns
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
    return tuple(kernel_rows([((hyp,), refs)])[0])


def row(match_n, total_n, hyp_len, ref_len):
    return (*match_n, *total_n, hyp_len, ref_len)


def packed_rows(rows_per_sentence):
    """A one-feature packed corpus holding the given statistics rows."""
    stats = np.array([r for rows in rows_per_sentence for r in rows], dtype=np.int64)
    return pack_rows(np.zeros((len(stats), 1)), [len(rows) for rows in rows_per_sentence], stats)


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
        ((_, rows),) = _sweep(flat_hulls(hulls, packed.offsets.tolist()), packed.stats)
        start, added, restored = map(tuple, rows.tolist())
        assert added == tuple(x + y for x, y in zip(a, b))
        assert restored == a
        assert start == a

    def test_aggregate_matches_manual_sum(self):
        a = row((1, 0, 0, 0), (2, 1, 0, 0), 2, 3)
        b = row((2, 1, 0, 0), (3, 2, 1, 0), 3, 3)
        packed = packed_rows([[a], [b]])
        ((_, rows),) = _sweep(flat_hulls([((), (0,))] * 2, packed.offsets.tolist()), packed.stats)
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
        stats = PackedCorpus.of(corpus).stats
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
        # PackedCorpus.of scores whole blocks of sentences at once;
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

    def test_packing_pads_sentences_with_fewer_references(self):
        # The middle sentence has the most references; the others' missing
        # slots are () padding, which no row may count as a reference.
        nbest = {
            0: [Hypothesis(0, 0, ("a", "b"), (1.0,))],
            1: [Hypothesis(1, 0, ("c",), (1.0,)), Hypothesis(1, 1, ("c", "d"), (0.0,))],
            2: [Hypothesis(2, 0, ("e",), (2.0,))],
        }
        refs = {0: [("a",)], 1: [("c", "d"), ("d",), ("c", "c", "d")], 2: [("e", "f")]}
        corpus = build_corpus(nbest, refs)
        assert [len(slot) for slot in reference_slots(corpus)] == [3, 3, 3]
        assert reference_slots(corpus)[2] == ((), ("c", "c", "d"), ())
        expected = [
            list(clipped_stats_by_counting(hyp.tokens, entry.references))
            for entry in corpus.entries
            for hyp in entry.hypotheses
        ]
        assert PackedCorpus.of(corpus).stats.tolist() == expected

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


def _oracle_rows(sentences):
    """Counting-oracle rows; a blank reference is no reference."""
    return [
        list(clipped_stats_by_counting(tuple(hyp), [ref for ref in refs if ref]))
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
    """Sentences over ``vocab``: short and long hypotheses, short and longer references,
    blank ones among them but never all."""

    def seqs(low, high):
        return st.lists(st.sampled_from(vocab), min_size=low, max_size=high).map(tuple)

    return st.lists(
        st.tuples(
            st.lists(st.one_of(seqs(0, 3), seqs(4, 12)), min_size=1, max_size=4),
            st.lists(st.one_of(seqs(0, 3), seqs(0, 8)), min_size=1, max_size=3).filter(any),
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
    @example([([("a", "b") * 3, ()], [("a", "b"), ("b",)]), ([("b", "a", "b", "b")], [(), ("a",)])])
    def test_rows_match_counting_oracle_on_tiny_vocabularies(self, sentences):
        expected = _oracle_rows(sentences)
        assert kernel_rows(sentences) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bleu, "BLOCK_TOKENS", 1)
            assert kernel_rows(sentences) == expected

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
            assert PackedCorpus.of(corpus).stats.tolist() == expected, f"corpus {i}"

    def test_rows_do_not_depend_on_block_boundaries(self):
        corpora = [random_corpus(seed)[0] for seed in range(40)] + list(_synth_corpora())
        for i, corpus in enumerate(corpora):
            sentences = _sentences(corpus)
            whole = kernel_rows(sentences)
            one_by_one = [row for sentence in sentences for row in kernel_rows([sentence])]
            assert one_by_one == whole, f"corpus {i}"
            for block_tokens in (1, 40, 333):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(bleu, "BLOCK_TOKENS", block_tokens)
                    got = kernel_rows(sentences)
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
            # One reference is blank, which is no reference, so the closest length is 3.
            ([("q",), ()], [(), ("q", "r", "s")]),
        ],
    )
    def test_edge_cases_match_counting_oracle(self, hyps, refs, monkeypatch):
        sentences = [(hyps, refs), ([("a", "b", "c", "d")], [("a", "b", "c", "d")])]
        assert kernel_rows(sentences) == _oracle_rows(sentences)
        monkeypatch.setattr(bleu, "BLOCK_TOKENS", 1)
        assert kernel_rows(sentences) == _oracle_rows(sentences)

    def test_repeated_ngram_is_clipped_to_reference_maximum(self):
        st = sentence_row(("a",) * 6, [("a", "a", "b"), ("a", "a", "a", "c")])
        assert st[0:4] == (3, 2, 1, 0)
        assert st[4:8] == (6, 5, 4, 3)
        assert st[9] == 4

    def test_empty_hypothesis_row(self):
        st = sentence_row((), [("a", "b", "c"), ("d", "e")])
        assert st == row((0, 0, 0, 0), (0, 0, 0, 0), 0, 2)

    def test_sentence_without_references_raises(self):
        # No reference at all, or only blank ones.
        for second in ([], [()], [(), ()]):
            sentences = [([("a",)], [("a",)]), ([("b",)], second)]
            with pytest.raises(NoReferences, match="sentence 1 "):
                kernel_rows(sentences)

    def test_memory_is_bounded_by_the_block_not_the_corpus(self):
        # tracemalloc sees numpy's buffers; the id columns exist before tracing starts.
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
            columns = token_columns(sentences)
            tracemalloc.start()
            try:
                total = np.zeros(10, dtype=np.int64)
                for rows in stats_blocks(*columns):
                    total += rows.sum(axis=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert total[8] == sum(lens[0] for lens in lengths)
        assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks


def _column_rows(hyp_lines, ref_files):
    """The rows ``score`` computes: files read into columns, then ``stats_blocks``, one line per sentence."""
    vocabulary = Vocabulary()
    hyps = vocabulary.column(hyp_lines, str.split)
    refs = reference_columns(iter(ref_files), [f"ref{j}" for j in range(len(ref_files))], vocabulary)
    blocks = stats_blocks(hyps, [1] * len(hyp_lines), refs)
    return np.concatenate([np.zeros((0, 10), dtype=np.int64), *blocks]).tolist()


def _line_rows(hyp_lines, ref_files):
    """Counting-oracle rows of the same lines: one hypothesis per line, blank references left out."""
    return _oracle_rows([((line.split(),), [ref.split() for ref in refs]) for line, refs in zip(hyp_lines, zip(*ref_files))])


def _score_lines(rng, sentences, ref_count, vocab, lengths):
    """A hypothesis file and ``ref_count`` reference files of random lines, every length in
    ``lengths`` drawn as often (0 is a blank line); every sentence keeps one non-blank reference."""

    vocab = np.array(vocab)

    def line():
        return " ".join(vocab[rng.integers(len(vocab), size=rng.choice(lengths))].tolist())

    hyp = [line() for _ in range(sentences)]
    refs = [[line() for _ in range(sentences)] for _ in range(ref_count)]
    for i in range(sentences):
        while not any(ref[i] for ref in refs):
            refs[rng.integers(ref_count)][i] = line()
    return hyp, refs


# Non-ASCII tokens; composed and decomposed "e acute" are different tokens.
UNICODE = ["größe", "日本", "語", "\u00e9", "e\u0301", "🙂"]


class TestColumnBlocks:
    """``stats_blocks`` on id columns, as ``score``, ``mert`` and ``rss`` run it, equals the counting oracle."""

    @pytest.mark.parametrize("block_tokens", [1, 7, 100, bleu.BLOCK_TOKENS])
    def test_blank_lines_and_many_blocks(self, block_tokens, monkeypatch):
        rng = np.random.default_rng(block_tokens)
        vocab = [f"w{i}" for i in range(12)] + UNICODE
        hyp, refs = _score_lines(rng, 400, 3, vocab, [0, 0, 1, 2, 3, 5, 9, 14])
        assert sum(not line for line in hyp) > 20 and sum(not line for ref in refs for line in ref) > 60
        monkeypatch.setattr(bleu, "BLOCK_TOKENS", block_tokens)
        assert _column_rows(hyp, refs) == _line_rows(hyp, refs)

    @pytest.mark.parametrize("block_tokens", [50, bleu.BLOCK_TOKENS])
    def test_a_sentence_longer_than_a_block(self, block_tokens, monkeypatch):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(40)] + UNICODE
        hyp, refs = _score_lines(rng, 30, 2, vocab, [0, 3, 8])
        long = 3 * bleu.BLOCK_TOKENS
        hyp[11] = " ".join(rng.choice(vocab, long))
        refs[0][11] = " ".join(rng.choice(vocab, long + 5))
        refs[1][12] = " ".join(rng.choice(vocab, long - 5))
        monkeypatch.setattr(bleu, "BLOCK_TOKENS", block_tokens)
        assert _column_rows(hyp, refs) == _line_rows(hyp, refs)

    def test_more_than_2_16_distinct_tokens(self):
        rng = np.random.default_rng(16)
        vocab = [f"t{i}" for i in range(80_000)] + UNICODE
        hyp, refs = _score_lines(rng, 3_000, 4, vocab, [0, 10, 20, 30])
        distinct = {token for line in hyp + [r for ref in refs for r in ref] for token in line.split()}
        assert len(distinct) > 2**16
        # Shared words make matches at every order.
        hyp[:100] = refs[0][:100]
        assert _column_rows(hyp, refs) == _line_rows(hyp, refs)

    def test_empty_files(self, monkeypatch):
        assert _column_rows([], [[], []]) == [] == _line_rows([], [[], []])
        monkeypatch.setattr(bleu, "BLOCK_TOKENS", 1)
        assert _column_rows([], [[]]) == []

    @pytest.mark.parametrize("block_tokens", [1, bleu.BLOCK_TOKENS])
    def test_blank_reference_lines_raise(self, block_tokens, monkeypatch):
        # Lines read as score reads them: a blank line is no reference, so
        # sentence 1 has none, and its row must not borrow sentence 0's length.
        vocabulary = Vocabulary()
        hyps = vocabulary.column(["a b c", "d e f g h"], str.split)
        refs = [vocabulary.column(["a b c", ""], str.split)]
        monkeypatch.setattr(bleu, "BLOCK_TOKENS", block_tokens)
        with pytest.raises(NoReferences, match="sentence 1 "):
            list(stats_blocks(hyps, [1, 1], refs))

    @pytest.mark.parametrize("block_tokens", [1, bleu.BLOCK_TOKENS])
    def test_nbest_shaped_sentences(self, block_tokens, monkeypatch):
        # Several hypotheses per sentence and uneven reference counts, as PackedCorpus.of feeds them.
        rng = np.random.default_rng(29)
        vocab = [f"w{i}" for i in range(8)] + UNICODE

        def seq(low, high):
            return tuple(rng.choice(vocab, int(rng.integers(low, high + 1))).tolist())

        sentences = [
            ([seq(1, 12) for _ in range(rng.integers(1, 9))], [seq(1, 10) for _ in range(rng.integers(1, 5))])
            for _ in range(60)
        ]
        sentences[7][1].append(seq(25, 30))  # one sentence with more references than any other
        assert len({len(refs) for _, refs in sentences}) > 2
        monkeypatch.setattr(bleu, "BLOCK_TOKENS", block_tokens)
        assert kernel_rows(sentences) == _oracle_rows(sentences)
