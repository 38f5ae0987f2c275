import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

from rotamert import bleu
from rotamert.bleu import Vocabulary, reference_columns
from rotamert.corpus import (
    Hypothesis,
    build_corpus,
    format_nbest,
    format_references,
    parse_nbest,
    parse_references,
    read_nbest,
)
from rotamert.descent import kcd_optimize
from rotamert.errors import (
    ConfigError,
    EmptyCorpus,
    IdMismatch,
    InconsistentFeatureCount,
    InputError,
    LengthMismatch,
    MalformedLine,
    NoReferences,
    NonNumericFeature,
)


def lines(*rows):
    return list(rows)


class TestParseNbest:
    def test_basic_line(self):
        by_id, names = parse_nbest(
            lines("0 ||| the cat ||| 0.5 -1.25 ||| -0.75")
        )
        assert set(by_id) == {0}
        (hyp,) = by_id[0]
        assert hyp.tokens == ("the", "cat")
        assert hyp.features == (0.5, -1.25)
        assert hyp.rank == 0
        assert names is None

    def test_ranks_follow_file_order_per_id(self):
        by_id, _ = parse_nbest(
            lines(
                "1 ||| a ||| 1.0 ||| 1.0",
                "0 ||| b ||| 2.0 ||| 2.0",
                "1 ||| c ||| 3.0 ||| 3.0",
                "0 ||| d ||| 4.0 ||| 4.0",
            )
        )
        assert [h.rank for h in by_id[1]] == [0, 1]
        assert [h.tokens for h in by_id[0]] == [("b",), ("d",)]

    def test_labels_single_value_keeps_bare_name(self):
        by_id, names = parse_nbest(
            lines("0 ||| a ||| lm: -2.0 tm: 0.5 wp: 3.0 ||| 1.5")
        )
        assert names == ["lm", "tm", "wp"]
        assert by_id[0][0].features == (-2.0, 0.5, 3.0)

    def test_labels_grouped_values_get_suffixes(self):
        _, names = parse_nbest(lines("0 ||| a ||| tm: 1.0 2.0 3.0 lm: 4.0 ||| 10.0"))
        assert names == ["tm0", "tm1", "tm2", "lm"]

    @pytest.mark.parametrize(
        "field, expected",
        [
            ("tm: 1 2 tm: 3", ["tm0", "tm1", "tm2"]),
            ("lm: 1 lm: 2", ["lm0", "lm1"]),
            ("lm: 1 tm: 2 3 lm: 4 wp: 5", ["lm0", "tm0", "tm1", "lm1", "wp"]),
        ],
    )
    def test_repeated_labels_number_their_values_on(self, field, expected):
        _, names = parse_nbest(lines(f"0 ||| a ||| {field} ||| 10.0"))
        assert names == expected

    def test_labels_recorded_from_first_labeled_line_only(self):
        _, names = parse_nbest(
            lines(
                "0 ||| a ||| 1.0 2.0 ||| 3.0",
                "0 ||| b ||| lm: 1.0 tm: 2.0 ||| 3.0",
            )
        )
        assert names == ["lm", "tm"]

    def test_labeled_lines_must_agree_with_the_first(self):
        first = "0 ||| a ||| lm: 1.0 tm: 2.0 ||| 0"
        message = r"^x\.nbest:2: expected the first labeled line's labels at the same positions: lm: tm:$"
        for later in ("0 ||| b ||| tm: 5.0 lm: 6.0 ||| 0", "0 ||| c ||| tm: 7.0 8.0 ||| 0",
                      "0 ||| d ||| lm: tm: 7.0 8.0 ||| 0"):
            with pytest.raises(MalformedLine, match=message):
                parse_nbest(lines(first, later), source="x.nbest")
        # An unlabeled line is read by position, and the same labels agree.
        by_id, names = parse_nbest(
            lines(first, "0 ||| e ||| 9.0 10.0 ||| 0", "0 ||| f ||| lm: 3.0 tm: 4.0 ||| 0")
        )
        assert names == ["lm", "tm"]
        assert [h.features for h in by_id[0]] == [(1.0, 2.0), (9.0, 10.0), (3.0, 4.0)]

    @pytest.mark.parametrize(
        "field, repeated", [("tm: 1 2 tm0: 3", "tm0"), ("1 f0: 2", "f0"), ("lm: 1 lm0: 2 lm: 3", "lm0")]
    )
    def test_feature_names_never_repeat(self, field, repeated):
        # Named at the first labeled line, after an unlabeled one.
        unlabeled = " ".join(tok for tok in field.split() if not tok.endswith(":"))
        with pytest.raises(MalformedLine, match=f"^x\\.nbest:2: feature names repeat: {repeated}$"):
            parse_nbest(
                lines(f"0 ||| a ||| {unlabeled} ||| 0", f"0 ||| b ||| {field} ||| 0"), source="x.nbest"
            )

    def test_wrong_field_count_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_nbest(lines("0 ||| just tokens ||| 1.0"))

    def test_non_integer_id_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_nbest(lines("x ||| a ||| 1.0 ||| 1.0"))

    def test_negative_id_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_nbest(lines("-1 ||| a ||| 1.0 ||| 1.0"))

    def test_empty_hypothesis_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_nbest(lines("0 |||  ||| 1.0 ||| 1.0"))

    def test_non_numeric_feature(self):
        with pytest.raises(NonNumericFeature):
            parse_nbest(lines("0 ||| a ||| 1.0 oops ||| 1.0"))

    def test_non_finite_feature(self):
        with pytest.raises(NonNumericFeature):
            parse_nbest(lines("0 ||| a ||| nan ||| 1.0"))
        with pytest.raises(NonNumericFeature):
            parse_nbest(lines("0 ||| a ||| inf ||| 1.0"))

    def test_feature_count_must_stay_constant(self):
        with pytest.raises(InconsistentFeatureCount):
            parse_nbest(
                lines("0 ||| a ||| 1.0 2.0 ||| 3.0", "0 ||| b ||| 1.0 ||| 1.0")
            )

    def test_total_field_must_be_numeric(self):
        with pytest.raises(NonNumericFeature):
            parse_nbest(lines("0 ||| a ||| 1.0 ||| total"))

    def test_error_message_names_source_and_line(self):
        with pytest.raises(MalformedLine, match=r"list\.nbest:2"):
            parse_nbest(
                lines("0 ||| a ||| 1.0 ||| 1.0", "0 ||| ||| 1.0 ||| 1.0"),
                source="list.nbest",
            )

    def test_read_nbest_gives_columns_sorted_stably_by_id(self):
        vocabulary = Vocabulary()
        nbest = read_nbest(["1 ||| a b ||| 1.5 ||| 0", "0 ||| b ||| 0.1 ||| 0", "1 ||| c ||| -2 ||| 0"], "x", vocabulary)
        assert nbest.ids == [0, 1, 1]
        assert dict(vocabulary) == {"b": 0, "a": 1, "c": 2}
        assert (nbest.hyps.tokens.tolist(), nbest.hyps.lengths.tolist()) == ([0, 1, 0, 2], [1, 2, 1])
        assert nbest.features.dtype == np.float64
        assert nbest.features.tolist() == [[0.1], [1.5], [-2.0]]
        assert nbest.names is None

    def test_equal_tokens_are_one_object(self):
        by_id, _ = parse_nbest(
            lines("0 ||| the cat saw the dog ||| 1.0 ||| 1.0", "1 ||| the dog ||| 2.0 ||| 2.0")
        )
        first, second = by_id[0][0].tokens, by_id[1][0].tokens
        assert first == ("the", "cat", "saw", "the", "dog")
        assert second == ("the", "dog")
        assert first[0] is first[3] is second[0]
        assert first[4] is second[1]


class TestParseReferences:
    def test_parallel_files(self):
        refs = parse_references([["a b", "c d"], ["a x", "c y"]])
        assert refs[0] == [("a", "b"), ("a", "x")]
        assert refs[1] == [("c", "d"), ("c", "y")]

    def test_blank_line_skips_that_reference(self):
        refs = parse_references([["a b", "c d"], ["", "c y"]])
        assert refs[0] == [("a", "b")]
        assert len(refs[1]) == 2

    def test_all_blank_row_raises(self):
        with pytest.raises(NoReferences):
            parse_references([["a b", ""], ["c d", "  "]])

    def test_line_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            parse_references([["a", "b"], ["c"]])

    def test_no_streams(self):
        with pytest.raises(NoReferences):
            parse_references([])

    def test_equal_tokens_are_one_object_across_streams(self):
        refs = parse_references([["the cat saw the dog", "a dog"], ["the dog", ""]])
        assert refs == {0: [("the", "cat", "saw", "the", "dog"), ("the", "dog")], 1: [("a", "dog")]}
        (first, second), (third,) = refs[0], refs[1]
        assert first[0] is first[3] is second[0]
        assert first[4] is second[1] is third[1]

    @pytest.mark.parametrize(
        "streams",
        [
            [],
            [["a", "b"], ["c"]],
            [["a b", ""], ["c d", "  "]],
            [["", "a"], ["\t", "b"], ["", "c"]],
        ],
    )
    def test_reference_columns_refuse_what_parse_references_refuses(self, streams):
        sources = [f"ref{j}" for j in range(len(streams))]
        with pytest.raises(InputError) as parsed:
            parse_references(streams, sources)
        with pytest.raises(InputError) as read:
            reference_columns(iter(streams), sources, Vocabulary())
        assert (type(read.value), str(read.value)) == (type(parsed.value), str(parsed.value))

    def test_columns_hold_one_id_per_distinct_token_across_files(self):
        vocabulary = Vocabulary()
        hyps = vocabulary.column(["the cat", "", "größe  the"], str.split)
        refs = reference_columns(iter([["the dog", "a", "größe"], ["", "cat", "x y"]]), ["r0", "r1"], vocabulary)
        assert dict(vocabulary) == {"the": 0, "cat": 1, "größe": 2, "dog": 3, "a": 4, "x": 5, "y": 6}
        assert [(c.tokens.tolist(), c.lengths.tolist()) for c in (hyps, *refs)] == [
            ([0, 1, 2, 0], [2, 0, 2]),
            ([0, 3, 4, 2], [2, 1, 1]),
            ([1, 5, 6], [0, 1, 2]),
        ]
        assert {array.dtype for column in (hyps, *refs) for array in column} == {np.dtype(np.int32)}

    def test_token_tuples_take_the_ids_of_their_lines(self):
        # Token tuples, as PackedCorpus.of passes them, and lines, as score reads them.
        vocabulary = Vocabulary()
        lines = vocabulary.column(["the cat", "", "größe  the"], str.split)
        tuples = vocabulary.column([("the", "cat"), (), ("größe", "the")], tuple)
        assert dict(vocabulary) == {"the": 0, "cat": 1, "größe": 2}
        for column in (lines, tuples):
            assert (column.tokens.tolist(), column.lengths.tolist()) == ([0, 1, 2, 0], [2, 0, 2])

    def test_a_vocabulary_too_large_for_int32_ids_is_refused(self, monkeypatch):
        monkeypatch.setattr(bleu, "MAX_VOCABULARY", 3)
        vocabulary = Vocabulary()
        assert vocabulary.column(["a b a", "c"], str.split).tokens.tolist() == [0, 1, 0, 2]
        with pytest.raises(InputError, match="^the input holds more than 3 distinct tokens$"):
            vocabulary.column(["a d"], str.split)

    def test_token_storage_grows_with_the_vocabulary_not_the_token_count(self):
        # The lines exist before tracing starts, so what stays traced is the parsed
        # map. A fresh str per token would alone exceed the bound; a shared one
        # leaves a tuple slot per token plus each line's tuple, list and dict entry.
        vocab = [f"word{i:02d}" for i in range(50)]
        rng = random.Random(7)
        stream = [" ".join(rng.choices(vocab, k=16)) for _ in range(40_000)]
        tracemalloc.start()
        try:
            refs = parse_references([stream])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(len(tokens) for (tokens,) in refs.values()) == 16 * 40_000
        assert held / (16 * 40_000) < sys.getsizeof(vocab[0]) / 2, held


def tiny_corpus():
    nbest = {
        0: [
            Hypothesis(0, 0, ("a", "b"), (1.0, 2.0)),
            Hypothesis(0, 1, ("c",), (0.5, -1.0)),
        ],
        1: [Hypothesis(1, 0, ("d", "e"), (0.0, 0.25))],
    }
    refs = {0: [("a", "b")], 1: [("d", "e"), ("d",)]}
    return nbest, refs


class TestBuildCorpus:
    def test_round_trip_through_maps(self):
        nbest, refs = tiny_corpus()
        corpus = build_corpus(nbest, refs)
        again = build_corpus(
            {e.sentence_id: list(e.hypotheses) for e in corpus.entries},
            {e.sentence_id: list(e.references) for e in corpus.entries},
            corpus.feature_names,
        )
        assert again == corpus

    def test_default_feature_names(self):
        nbest, refs = tiny_corpus()
        corpus = build_corpus(nbest, refs)
        assert corpus.feature_names == ("f0", "f1")
        assert corpus.feature_dim == 2
        assert corpus.size == 2

    def test_feature_name_count_checked(self):
        nbest, refs = tiny_corpus()
        with pytest.raises(InconsistentFeatureCount):
            build_corpus(nbest, refs, ["only_one"])

    def test_feature_names_must_not_repeat(self):
        nbest, refs = tiny_corpus()
        with pytest.raises(InconsistentFeatureCount, match="^feature names repeat: x$"):
            build_corpus(nbest, refs, ("x", "x"))

    @pytest.mark.parametrize("names", [(1, 2), ([1], [2]), ("x", b"y"), ("x", None)])
    def test_feature_names_must_be_strings(self, names):
        # Refused before the repeat check, which could not hash a list.
        nbest, refs = tiny_corpus()
        bad = next(name for name in names if not isinstance(name, str))
        with pytest.raises(InconsistentFeatureCount, match=f"^feature names must be strings, got {re.escape(repr(bad))}$"):
            build_corpus(nbest, refs, names)

    def test_id_sets_must_match(self):
        nbest, refs = tiny_corpus()
        del refs[1]
        with pytest.raises(IdMismatch):
            build_corpus(nbest, refs)

    def test_ids_must_be_dense(self):
        nbest = {0: [Hypothesis(0, 0, ("a",), (1.0,))], 2: [Hypothesis(2, 0, ("b",), (2.0,))]}
        refs = {0: [("a",)], 2: [("b",)]}
        with pytest.raises(IdMismatch):
            build_corpus(nbest, refs)

    def test_exact_duplicates_are_kept_in_order(self):
        nbest = {
            0: [
                Hypothesis(0, 0, ("a",), (1.0,)),
                Hypothesis(0, 1, ("a",), (1.0,)),
                Hypothesis(0, 2, ("a",), (2.0,)),
            ]
        }
        corpus = build_corpus(nbest, {0: [("a",)]})
        assert corpus.entries[0].hypotheses == tuple(nbest[0])

    def test_same_tokens_different_features_both_kept(self):
        nbest = {
            0: [Hypothesis(0, 0, ("a",), (1.0,)), Hypothesis(0, 1, ("a",), (1.5,))]
        }
        corpus = build_corpus(nbest, {0: [("a",)]})
        assert len(corpus.entries[0].hypotheses) == 2

    def test_empty_inputs(self):
        with pytest.raises(EmptyCorpus):
            build_corpus({}, {})
        with pytest.raises(EmptyCorpus):
            build_corpus({0: []}, {0: [("a",)]})

    def test_mistagged_hypothesis(self):
        nbest = {0: [Hypothesis(5, 0, ("a",), (1.0,))]}
        with pytest.raises(IdMismatch):
            build_corpus(nbest, {0: [("a",)]})

    def test_hand_built_maps_are_checked_like_parsed_ones(self):
        with pytest.raises(MalformedLine, match="^sentence 0: empty hypothesis$"):
            build_corpus({0: [Hypothesis(0, 0, (), (1.0,))]}, {0: [("a",)]})
        mixed = {0: [Hypothesis(0, 0, ("a",), (1.0, 2.0)), Hypothesis(0, 1, ("b",), (1.0,))]}
        with pytest.raises(
            InconsistentFeatureCount, match="^sentence 0: expected 2 features, got 1$"
        ):
            build_corpus(mixed, {0: [("a",)]})
        with pytest.raises(NoReferences, match="^sentence 0 has no non-empty reference$"):
            build_corpus({0: [Hypothesis(0, 0, ("a",), (1.0,))]}, {0: [(), ()]})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feature_is_rejected_with_its_sentence_and_rank(self, value):
        nbest = {
            0: [Hypothesis(0, 0, ("a",), (1.0, 2.0))],
            1: [Hypothesis(1, 0, ("a",), (1.0, 2.0)), Hypothesis(1, 1, ("b",), (1.0, value))],
        }
        with pytest.raises(
            NonNumericFeature,
            match=rf"^sentence 1, hypothesis 1: feature value {value!r} is not finite$",
        ):
            build_corpus(nbest, {0: [("a",)], 1: [("a",)]})
        # Finite values are kept, also when their sum overflows.
        big = {0: [Hypothesis(0, 0, ("a",), (1e308, 1e308, -1e308))]}
        assert build_corpus(big, {0: [("a",)]}).entries[0].hypotheses == tuple(big[0])
        # Not blamed on overflow by the descent, as when the corpus was built.
        with pytest.raises(NonNumericFeature, match="is not finite"):
            kcd_optimize(build_corpus({0: [Hypothesis(0, 0, ("a",), (value, 1.0))]}, {0: [("a",)]}))

    ONE = {0: [Hypothesis(0, 0, ("a",), (1.0,))]}
    NOT_A_STRING = "must be an iterable that is not a string, got"

    @pytest.mark.parametrize(
        "reader, args, message",
        [
            (parse_nbest, (5,), f"lines {NOT_A_STRING} int"),
            (parse_nbest, ([5],), "lines must hold only str items, got int"),
            (parse_nbest, ("0 ||| a ||| 1 ||| 1",), f"lines {NOT_A_STRING} str"),
            (parse_references, (5,), f"streams {NOT_A_STRING} int"),
            (parse_references, ([5],), f"a reference stream {NOT_A_STRING} int"),
            (parse_references, (["a b"],), f"a reference stream {NOT_A_STRING} str"),
            (parse_references, ([[5]],), "a reference stream must hold only str items, got int"),
            (build_corpus, (5, {}), "nbest must be a Mapping, got int"),
            (build_corpus, ({0: [5]}, {0: [("a",)]}), "nbest[0] must hold only Hypothesis items, got int"),
            (build_corpus, ({0: 5}, {0: [("a",)]}), f"nbest[0] {NOT_A_STRING} int"),
            (build_corpus, (ONE, {0: [5]}), "refs[0] must hold only Iterable items, got int"),
            (build_corpus, (ONE, {0: [("a",)]}, 5), f"feature_names {NOT_A_STRING} int"),
        ],
    )
    def test_readers_refuse_arguments_of_the_wrong_type(self, reader, args, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            reader(*args)

    @pytest.mark.parametrize("features", [("x",), (1.0, None), (1j,), 5, (np.array(1.0),)])
    def test_a_feature_value_that_is_not_a_real_number_is_refused(self, features):
        nbest = {0: [Hypothesis(0, 0, ("a",), (1.0,))], 1: [Hypothesis(1, 0, ("a",), features)]}
        message = f"sentence 1, hypothesis 0: feature values must be real numbers, got {features!r}"
        with pytest.raises(NonNumericFeature, match=f"^{re.escape(message)}$"):
            build_corpus(nbest, {0: [("a",)], 1: [("a",)]})

    @pytest.mark.parametrize(
        "hyp, error, message",
        [
            (Hypothesis(1, 1, ["a"], (1.0,)), MalformedLine, "tokens must be a tuple of strings, got ['a']"),
            (Hypothesis(1, 1, 5, (1.0,)), MalformedLine, "tokens must be a tuple of strings, got 5"),
            (Hypothesis(1, 1, (["a"],), (1.0,)), MalformedLine, "tokens must be a tuple of strings, got (['a'],)"),
            (Hypothesis(1, 1, (5,), (1.0,)), MalformedLine, "tokens must be a tuple of strings, got (5,)"),
            (Hypothesis(1, 1, ("a", None), (1.0,)), MalformedLine, "tokens must be a tuple of strings, got ('a', None)"),
            (Hypothesis(1, 1, ("a",), [1.0]), NonNumericFeature, "feature values must be a tuple, got [1.0]"),
        ],
    )
    def test_tokens_and_features_must_be_tuples(self, hyp, error, message):
        nbest = {0: [Hypothesis(0, 0, ("a",), (1.0,))], 1: [Hypothesis(1, 0, ("b",), (1.0,)), hyp]}
        with pytest.raises(error, match=f"^{re.escape('sentence 1, hypothesis 1: ' + message)}$"):
            build_corpus(nbest, {0: [("a",)], 1: [("b",)]})

    @pytest.mark.parametrize("ref", ["ab", "", (["a"],), ("a", 5), b"ab"])
    def test_references_must_be_sequences_of_strings(self, ref):
        nbest = {0: [Hypothesis(0, 0, ("a",), (1.0,))], 1: [Hypothesis(1, 0, ("b",), (1.0,))]}
        message = f"sentence 1, reference 1: tokens must be a sequence of strings and not a string, got {ref!r}"
        with pytest.raises(MalformedLine, match=f"^{re.escape(message)}$"):
            build_corpus(nbest, {0: [("a",)], 1: [("b",), ref]})

    def test_sentence_ids_must_be_integers(self):
        one = [Hypothesis(0, 0, ("a",), (1.0,))]
        with pytest.raises(IdMismatch, match="^nbest sentence ids must be integers, got 'a'$"):
            build_corpus({0: one, "a": one}, {1: [("a",)], 2: [("a",)]})
        with pytest.raises(IdMismatch, match="^refs sentence ids must be integers, got 1.0$"):
            build_corpus({0: one}, {0: [("a",)], 1.0: [("a",)]})

    def test_empty_feature_field_is_malformed(self):
        by_id, names = parse_nbest(["0 ||| a b c ||| ||| 0", "0 ||| a c ||| ||| 0"])
        with pytest.raises(MalformedLine, match="feature field is empty"):
            build_corpus(by_id, {0: [("a", "b", "c")]}, names)


class TestFormatting:
    def test_nbest_round_trip_is_bit_exact(self):
        nbest, refs = tiny_corpus()
        corpus = build_corpus(nbest, refs, ("lm", "tm"))
        by_id, names = parse_nbest(format_nbest(corpus).splitlines())
        assert names == ["lm", "tm"]
        rebuilt = build_corpus(by_id, refs, names)
        assert rebuilt == corpus

    def test_awkward_floats_survive_round_trip(self):
        value = 0.1 + 0.2
        nbest = {0: [Hypothesis(0, 0, ("a",), (value, 1e-17))]}
        corpus = build_corpus(nbest, {0: [("a",)]})
        by_id, _ = parse_nbest(format_nbest(corpus).splitlines())
        assert by_id[0][0].features == (value, 1e-17)

    def test_reference_streams_pad_ragged_rows(self):
        nbest, refs = tiny_corpus()
        corpus = build_corpus(nbest, refs)
        streams = format_references(corpus)
        assert len(streams) == 2
        assert streams[0].splitlines() == ["a b", "d e"]
        assert streams[1].splitlines() == ["", "d"]
        parsed = parse_references([s.splitlines() for s in streams])
        assert parsed == {0: [("a", "b")], 1: [("d", "e"), ("d",)]}
