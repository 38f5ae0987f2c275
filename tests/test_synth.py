import numpy as np
import pytest

from rotamert import synthetic
from rotamert.descent import kcd_optimize, uniform_weights
from rotamert.envelope import PackedCorpus
from rotamert.errors import SpecInvalid
from rotamert.synthetic import (
    MAX_FEATURE_VALUES,
    MAX_HYPOTHESES,
    MAX_REF_COUNT,
    MAX_VOCAB_SIZE,
    SynthSpec,
    corrupt_reference,
    generate,
)

from instances import adversarial_certificate, adversarial_instance, kernel_rows


class TestSpecValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(SpecInvalid):
            SynthSpec(sentences=0, hypotheses=4, features=2)
        with pytest.raises(SpecInvalid):
            SynthSpec(sentences=3, hypotheses=0, features=2)
        with pytest.raises(SpecInvalid):
            SynthSpec(sentences=3, hypotheses=4, features=0)
        with pytest.raises(SpecInvalid):
            SynthSpec(sentences=3, hypotheses=4, features=2, ref_count=0)
        with pytest.raises(SpecInvalid):
            SynthSpec(sentences=3, hypotheses=4, features=2, vocab_size=1)

    def test_sizes_are_bounded(self):
        # Each spec is refused in its constructor, before anything is allocated.
        with pytest.raises(SpecInvalid, match=r"hypotheses \(sentences x hypotheses\)"):
            SynthSpec(sentences=MAX_HYPOTHESES + 1, hypotheses=1, features=1)
        with pytest.raises(SpecInvalid, match=r"hypotheses \(sentences x hypotheses\)"):
            SynthSpec(sentences=100_000_000, hypotheses=100_000, features=2)
        with pytest.raises(SpecInvalid, match="feature values"):
            SynthSpec(sentences=1, hypotheses=1, features=MAX_FEATURE_VALUES + 1)
        with pytest.raises(SpecInvalid, match="feature values"):
            SynthSpec(sentences=1000, hypotheses=1000, features=11)
        with pytest.raises(SpecInvalid, match="vocabulary"):
            SynthSpec(3, 4, 2, vocab_size=MAX_VOCAB_SIZE + 1)
        with pytest.raises(SpecInvalid, match="reference count"):
            SynthSpec(3, 4, 2, ref_count=MAX_REF_COUNT + 1)

    def test_sizes_at_the_bounds_are_accepted(self):
        SynthSpec(sentences=MAX_HYPOTHESES, hypotheses=1, features=1)
        SynthSpec(sentences=1000, hypotheses=1000, features=10)
        SynthSpec(3, 4, 2, vocab_size=MAX_VOCAB_SIZE, ref_count=MAX_REF_COUNT)
        # The documented 400 x 100 x 8 corpus and the benchmark's shapes.
        for shape in ((400, 100, 8), (40, 50, 8), (30, 25, 4), (4000, 1, 1)):
            SynthSpec(*shape)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(SpecInvalid, match="^seed must be non-negative, got -1$"):
            SynthSpec(sentences=2, hypotheses=2, features=2, seed=-1)
        SynthSpec(sentences=2, hypotheses=2, features=2, seed=0)

    def test_correlated_pairs_checked(self):
        with pytest.raises(SpecInvalid):
            SynthSpec(3, 4, 2, correlated_pairs=((0, 2, 0.5),))
        with pytest.raises(SpecInvalid):
            SynthSpec(3, 4, 2, correlated_pairs=((1, 1, 0.5),))
        with pytest.raises(SpecInvalid):
            SynthSpec(3, 4, 2, correlated_pairs=((0, 1, 1.5),))


class TestCorruptReference:
    def test_quality_one_copies_everything(self):
        base = ("a", "b", "c", "d")
        out = corrupt_reference(base, [2, 0, 3, 1], ["x"] * 4, 1.0)
        assert out == base

    def test_quality_zero_replaces_everything(self):
        base = ("a", "b", "c", "d")
        out = corrupt_reference(base, [2, 0, 3, 1], ["x0", "x1", "x2", "x3"], 0.0)
        assert out == ("x0", "x1", "x2", "x3")

    def test_kept_positions_grow_with_quality(self):
        rng = np.random.default_rng(0)
        base = tuple(f"w{i}" for i in range(10))
        keep_order = [int(p) for p in rng.permutation(10)]
        replacements = [f"x{i}" for i in range(10)]
        previous: set[int] = set()
        for q in np.linspace(0.0, 1.0, 11):
            out = corrupt_reference(base, keep_order, replacements, float(q))
            kept = {i for i, tok in enumerate(out) if tok == base[i]}
            assert previous <= kept
            previous = kept


class TestGenerate:
    def test_same_spec_is_bit_reproducible(self):
        spec = SynthSpec(sentences=6, hypotheses=5, features=3, seed=42)
        a_closed, a_open = generate(spec)
        b_closed, b_open = generate(spec)
        assert a_closed == b_closed
        assert a_open == b_open

    def test_different_seeds_differ(self):
        base = SynthSpec(sentences=6, hypotheses=5, features=3, seed=1)
        other = SynthSpec(sentences=6, hypotheses=5, features=3, seed=2)
        assert generate(base)[0] != generate(other)[0]

    def test_shapes_match_spec(self):
        spec = SynthSpec(sentences=7, hypotheses=6, features=4, ref_count=3, seed=9)
        closed, opened = generate(spec)
        for corpus in (closed, opened):
            assert corpus.size == 7
            assert corpus.feature_dim == 4
            for entry in corpus.entries:
                assert len(entry.hypotheses) == 6
                assert len(entry.references) == 3

    def test_splits_share_no_reference(self):
        spec = SynthSpec(sentences=10, hypotheses=4, features=2, seed=5)
        closed, opened = generate(spec)
        closed_refs = {r for e in closed.entries for r in e.references}
        open_refs = {r for e in opened.entries for r in e.references}
        assert closed_refs.isdisjoint(open_refs)

    def test_splits_share_one_feature_model(self):
        # Each feature moves with quality the same way in both splits, so
        # the open split tests the task the closed split tunes for.
        def signs(corpus):
            features = np.array([h.features for e in corpus.entries for h in e.hypotheses])
            rows = np.array(kernel_rows([(tuple(h.tokens for h in e.hypotheses), e.references) for e in corpus.entries]))
            precision = rows[:, 0] / rows[:, 4]
            return [np.sign(np.corrcoef(column, precision)[0, 1]) for column in features.T]

        for seed in range(6):
            spec = SynthSpec(30, 25, 4, correlated_pairs=((0, 1, 0.9),), seed=seed)
            closed, opened = generate(spec)
            assert signs(closed) == signs(opened), f"seed {seed}"

    def test_closed_tuned_weights_carry_over_to_the_open_split(self):
        for seed in (1, 3, 4, 5):
            spec = SynthSpec(30, 25, 4, correlated_pairs=((0, 1, 0.9),), seed=seed)
            closed, opened = generate(spec)
            weights, _ = kcd_optimize(PackedCorpus.of(closed))
            packed = PackedCorpus.of(opened)
            tuned = packed.argmax_error(packed.project(weights)).bleu
            uniform = packed.argmax_error(packed.project(uniform_weights(4))).bleu
            assert tuned > uniform + 0.15, f"seed {seed}"

    def test_kept_positions_lower_bound_unigram_matches(self):
        # Corruption only swaps in tokens that occur in no reference, so
        # positions copied from the base reference always count as
        # matches; quality can only add to them.
        spec = SynthSpec(sentences=5, hypotheses=8, features=2, seed=11)
        closed, _ = generate(spec)
        for entry in closed.entries:
            for hyp in entry.hypotheses:
                kept = sum(
                    1
                    for tok, ref_tok in zip(hyp.tokens, entry.references[0])
                    if tok == ref_tok
                )
                (row,) = kernel_rows([((hyp.tokens,), entry.references)])
                unigram = row[0]
                assert unigram >= kept

    def test_requested_correlation_is_realized(self):
        spec = SynthSpec(
            sentences=40,
            hypotheses=10,
            features=3,
            correlated_pairs=((0, 2, 0.8),),
            seed=3,
        )
        closed, _ = generate(spec)
        rows = np.array(
            [h.features for e in closed.entries for h in e.hypotheses]
        )
        rho = np.corrcoef(rows[:, 0], rows[:, 2])[0, 1]
        assert abs(rho - 0.8) < 0.1

    def test_negative_correlation(self):
        spec = SynthSpec(
            sentences=40,
            hypotheses=10,
            features=2,
            correlated_pairs=((0, 1, -0.6),),
            seed=4,
        )
        closed, _ = generate(spec)
        rows = np.array(
            [h.features for e in closed.entries for h in e.hypotheses]
        )
        rho = np.corrcoef(rows[:, 0], rows[:, 1])[0, 1]
        assert abs(rho - (-0.6)) < 0.1

    def test_one_hypothesis_correlated_pair_stays_finite(self):
        # One value has no spread to standardize: the pair's target is noise only.
        spec = SynthSpec(sentences=1, hypotheses=1, features=2, correlated_pairs=((0, 1, 0.5),))
        for corpus in generate(spec):
            assert np.isfinite(corpus.entries[0].hypotheses[0].features).all()

    def test_two_word_vocabulary_replaces_with_fresh_tokens(self):
        # Every vocabulary word is in some reference, so replacements are
        # fresh tokens that no reference holds.
        spec = SynthSpec(sentences=3, hypotheses=4, features=2, vocab_size=2, seed=1)
        for corpus in generate(spec):
            for s, entry in enumerate(corpus.entries):
                in_refs = {tok for ref in entry.references for tok in ref}
                assert in_refs == {"w0", "w1"}
                for hyp in entry.hypotheses:
                    assert all(tok in in_refs or tok.startswith(f"x{s}_") for tok in hyp.tokens)
                assert any(tok not in in_refs for hyp in entry.hypotheses for tok in hyp.tokens)

    def test_open_split_that_cannot_avoid_closed_references_is_refused(self, monkeypatch):
        # Every draw repeats the same references, so the open split finds
        # none that the closed split does not already hold.
        monkeypatch.setattr(synthetic, "_draw_references", lambda rng, spec, vocab: [("w0", "w1")])
        with pytest.raises(SpecInvalid, match="^could not draw references disjoint from the closed split"):
            generate(SynthSpec(sentences=2, hypotheses=2, features=2))


class TestPackagedFixture:
    def test_instance_loads(self):
        corpus = adversarial_instance()
        assert corpus.size == 2
        assert corpus.feature_dim == 2
        assert all(len(e.hypotheses) == 4 for e in corpus.entries)
        # Every feature vector has unit length, so selections depend
        # only on the angle of the weight vector.
        for entry in corpus.entries:
            for hyp in entry.hypotheses:
                norm = sum(x * x for x in hyp.features)
                assert norm == pytest.approx(1.0, abs=1e-12)

    def test_certificate_keys(self):
        cert = adversarial_certificate()
        for key in (
            "version",
            "init_weights",
            "rotation",
            "stalled_selection",
            "stalled_bleu",
            "grid_best_selection",
            "grid_best_bleu",
            "selected_alpha",
            "selected_bleu",
            "winning_alphas",
        ):
            assert key in cert
        assert cert["grid_best_bleu"] == 1.0
        assert cert["stalled_bleu"] < 1.0
