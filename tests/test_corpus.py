import pytest

from rotamert.corpus import (
    Hypothesis,
    build_corpus,
    format_nbest,
    format_references,
    parse_nbest,
    parse_references,
    remap_sparse_ids,
)
from rotamert.errors import (
    EmptyCorpus,
    IdMismatch,
    InconsistentFeatureCount,
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

    def test_labels_recorded_from_first_labeled_line_only(self):
        _, names = parse_nbest(
            lines(
                "0 ||| a ||| 1.0 2.0 ||| 3.0",
                "0 ||| b ||| lm: 1.0 tm: 2.0 ||| 3.0",
            )
        )
        assert names == ["lm", "tm"]

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

    def test_remap_sparse_ids_makes_ids_dense(self):
        nbest = {3: [Hypothesis(3, 0, ("a",), (1.0,))], 7: [Hypothesis(7, 0, ("b",), (2.0,))]}
        refs = {3: [("a",)], 7: [("b",)]}
        corpus = build_corpus(*remap_sparse_ids(nbest, refs))
        assert [e.sentence_id for e in corpus.entries] == [0, 1]
        assert corpus.entries[1].hypotheses[0].tokens == ("b",)

    def test_exact_duplicates_drop_keeping_first(self):
        nbest = {
            0: [
                Hypothesis(0, 0, ("a",), (1.0,)),
                Hypothesis(0, 1, ("a",), (1.0,)),
                Hypothesis(0, 2, ("a",), (2.0,)),
            ]
        }
        corpus = build_corpus(nbest, {0: [("a",)]})
        kept = corpus.entries[0].hypotheses
        assert [h.rank for h in kept] == [0, 2]

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

    def test_remap_sparse_ids_needs_matching_ids(self):
        nbest = {3: [Hypothesis(3, 0, ("a",), (1.0,))]}
        with pytest.raises(IdMismatch, match="cannot remap: N-best ids and reference ids differ"):
            remap_sparse_ids(nbest, {4: [("a",)]})

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
