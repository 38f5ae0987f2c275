"""Acceptance gate: the release-blocking properties, one test each.

Run with ``pytest tests/test_acceptance.py -s`` to get one PASS/FAIL
line per criterion.  Every check is exact (integer statistics, or float
values that must agree bit for bit); runtime budgets are asserted where
a criterion carries one.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import rotamert.rotation
from rotamert.bleu import row_bleu
from rotamert.cli import main
from rotamert.corpus import parse_references
from rotamert.descent import DEFAULT_MAX_ITER, kcd_optimize, uniform_weights
from rotamert.envelope import LineSearchResult, PackedCorpus, _hulls, _sweep, line_search
from rotamert.rotation import AlphaGrid, report_tsv, rss_optimize, summary_rows

from instances import adversarial_certificate, adversarial_instance, kernel_rows, random_corpus, ray_instance, row_ranks
from oracles import (
    envelope_by_enumeration,
    first_argmax,
    merged_intervals_by_enumeration,
    ray_probe_min_error,
    scan_weight_grid,
    selection_error,
    split_hulls,
    sum_rows,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, name, budget=None):
    started = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - started
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - started
        status = "PASS" if ok else "FAIL"
        print(f"criterion {number}: {status} — {name} ({elapsed:.2f}s)")


def test_criterion_1_line_search_matches_pairwise_oracle():
    with criterion(
        1, "interval structure and minimum match the pairwise oracle, 1000 instances", budget=10.0
    ):
        for seed in range(1000):
            _, packed, lines_per_sentence, w, d = ray_instance(seed, min_features=2)
            start, plan = LineSearchResult.at(packed, w), packed.plan(enumerate(d))
            (result,) = line_search(packed, [start], [plan])
            hulls = _hulls([start.scores], [plan])
            ((boundaries, rows),) = _sweep(hulls, packed.stats)
            oracle_breaks = []
            for hull, lines in zip(split_hulls(hulls, row_ranks(packed)), lines_per_sentence):
                breaks, segments = envelope_by_enumeration(lines)
                assert hull == (breaks, segments), f"seed {seed}"
                oracle_breaks.append(breaks)
            bounds, stats, errors = merged_intervals_by_enumeration(
                lines_per_sentence, packed, per_sentence_breaks=oracle_breaks
            )
            assert boundaries == bounds, f"seed {seed}"
            assert list(map(tuple, rows.tolist())) == stats, f"seed {seed}"
            assert (
                min(e.error for e in errors) == result.error_at_star.error
            ), f"seed {seed}"


def test_criterion_2_no_grid_probe_beats_the_line_search():
    with criterion(
        2, "10,001 probes per ray never beat the sweep, 200 instances", budget=10.0
    ):
        for seed in range(2000, 2200):
            _, packed, lines_per_sentence, w, d = ray_instance(seed)
            start, plan = LineSearchResult.at(packed, w), packed.plan(enumerate(d))
            (result,) = line_search(packed, [start], [plan])
            ((boundaries, _),) = _sweep(_hulls([start.scores], [plan]), packed.stats)
            grid_min = ray_probe_min_error(lines_per_sentence, packed, boundaries)
            assert grid_min >= result.error_at_star.error, f"seed {seed}"


def test_criterion_3_descent_is_monotone_and_terminates():
    with criterion(3, "50 descent runs: monotone steps, bounded iterations"):
        for seed in range(50):
            corpus, _ = random_corpus(seed)
            packed = PackedCorpus.of(corpus)
            start = selection_error(
                packed, first_argmax(packed, packed.project(uniform_weights(corpus.feature_dim)))
            )
            _, trace = kcd_optimize(packed)
            errors = [start.error] + [s.error.error for s in trace.steps]
            assert all(a >= b for a, b in zip(errors, errors[1:])), f"seed {seed}"
            assert 1 <= trace.iterations <= DEFAULT_MAX_ITER, f"seed {seed}"


def test_criterion_4_zero_grid_reproduces_plain_descent():
    with criterion(4, "grid {0} reproduces plain descent bit for bit"):
        cases = [(PackedCorpus.of(adversarial_instance()), (1.0, 1.0))]
        for seed in range(3000, 3010):
            corpus, _ = random_corpus(seed, min_features=2)
            cases.append((PackedCorpus.of(corpus), None))
        for packed, init in cases:
            plain_w, plain_trace = kcd_optimize(packed, init)
            result = rss_optimize(
                packed, packed, init, rotation_spec=((0, 1),), grid=[0.0]
            )
            (record,) = result.records
            assert record.weights == plain_w
            assert record.trace == plain_trace
            assert record.trace.to_tsv() == plain_trace.to_tsv()
            assert result.selected_alpha == 0.0


def test_criterion_5_selection_never_regrets_the_baseline():
    with criterion(5, "selected alpha never scores below alpha = 0"):
        runs = []
        adv = PackedCorpus.of(adversarial_instance())
        runs.append(
            rss_optimize(adv, adv, (1.0, 1.0), rotation_spec=((0, 1),))
        )
        grid = [-0.4, -0.2, 0.0, 0.2, 0.4]
        for seed in range(4000, 4008):
            packed = PackedCorpus.of(random_corpus(seed, max_sentences=8, min_features=2)[0])
            runs.append(
                rss_optimize(packed, packed, rotation_spec=((0, 1),), grid=grid)
            )
        for result in runs:
            assert result.baseline is not None
            assert result.selected.closed_bleu >= result.baseline.closed_bleu


def test_criterion_6_rotation_escapes_the_certified_stall():
    with criterion(
        6, "frozen fixture: descent stalls, rotated grid reaches the optimum", budget=5.0
    ):
        corpus = adversarial_instance()
        cert = adversarial_certificate()
        packed = PackedCorpus.of(corpus)
        init = tuple(cert["init_weights"])

        weights, _ = kcd_optimize(packed, init)
        stalled_sel = first_argmax(packed, packed.project(weights))
        stalled = selection_error(packed, stalled_sel)
        assert stalled_sel == cert["stalled_selection"]
        assert stalled.bleu == cert["stalled_bleu"]

        grid_cfg = cert["weight_grid"]
        best_eval, best_sel, _ = scan_weight_grid(
            corpus, packed, grid_cfg["lo"], grid_cfg["hi"], grid_cfg["steps"]
        )
        assert best_sel == cert["grid_best_selection"]
        assert best_eval.bleu == cert["grid_best_bleu"]
        assert stalled.bleu < best_eval.bleu

        result = rss_optimize(
            packed, packed, init, rotation_spec=(tuple(cert["rotation"]),)
        )
        assert result.selected_alpha == cert["selected_alpha"]
        assert result.selected_alpha != 0.0
        assert result.selected.closed_bleu == cert["selected_bleu"]
        assert result.selected.closed_bleu == cert["grid_best_bleu"]
        assert result.baseline is not None
        assert result.baseline.closed_bleu == cert["stalled_bleu"]


def test_criterion_7_bleu_reference_behaviors(tmp_path, capsys):
    with criterion(7, "BLEU: identity, disjoint, certified fixture, permutation"):
        ref = DATA / "score.ref0"
        assert main(["score", str(ref), str(ref)]) == 0
        assert capsys.readouterr().out == "100.00\n"

        hyp = tmp_path / "junk.hyp"
        hyp.write_text("qq ww ee rr\ntt yy uu ii\nzz xx\n")
        assert main(["score", str(hyp), str(ref)]) == 0
        assert capsys.readouterr().out == "0.00\n"

        assert (
            main(
                [
                    "score",
                    str(DATA / "score.hyp"),
                    str(DATA / "score.ref0"),
                    str(DATA / "score.ref1"),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == "65.68\n"

        refs = parse_references(
            [
                (DATA / "score.ref0").read_text().splitlines(),
                (DATA / "score.ref1").read_text().splitlines(),
            ]
        )
        hyp_lines = (DATA / "score.hyp").read_text().splitlines()
        stats = [
            tuple(kernel_rows([((line.split(),), refs[i])])[0])
            for i, line in enumerate(hyp_lines)
        ]
        direct = row_bleu(sum_rows(stats))
        rng = np.random.default_rng(0)
        for _ in range(10):
            order = rng.permutation(len(stats))
            assert row_bleu(sum_rows(stats[i] for i in order)) == direct


def test_criterion_8_grid_cardinality_and_report_layout():
    with criterion(8, "default grid has 21 rows; report carries baseline and best"):
        points = AlphaGrid().points()
        assert len(points) == 21
        assert points[0] == -1.0 and points[10] == 0.0 and points[20] == 1.0

        corpus = PackedCorpus.of(adversarial_instance())
        result = rss_optimize(corpus, corpus, (1.0, 1.0), rotation_spec=((0, 1),))
        assert len(result.records) == 21

        report = report_tsv(result, corpus.feature_names)
        block, summary = report.split("\n\n")
        rows = block.splitlines()
        assert len(rows) == 1 + 21
        for row in rows[1:]:
            alpha_text = row.split("\t")[0]
            assert alpha_text[0] in "+-"

        summary_lines = summary_rows(result).splitlines()
        assert summary_lines[0] == "system\talpha\tclosed_bleu\topen_bleu"
        assert summary_lines[1].startswith("baseline\t")
        assert summary_lines[2].startswith("best\t")
        best_alpha = summary_lines[2].split("\t")[1]
        assert best_alpha[0] in "+-"


def test_criterion_9_parallelism_is_byte_identical(monkeypatch):
    # Workers start for any amount of work; the first point runs in-process.
    monkeypatch.setattr(rotamert.rotation, "POOL_MIN_SECONDS", 0.0)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # and on any host
    with criterion(9, "parallel and serial runs produce byte-identical output"):
        # Two points after the first, so the rss process pool really starts workers.
        grid = (-0.5, 0.0, 0.5)
        for seed in list(range(30)) + list(range(0, 1000, 97)):
            corpus = ray_instance(seed, min_features=2)[1]
            serial = rss_optimize(corpus, corpus, rotation_spec=((0, 1),), grid=grid, jobs=1)
            pooled = rss_optimize(corpus, corpus, rotation_spec=((0, 1),), grid=grid, jobs=4)
            assert repr(serial) == repr(pooled), f"seed {seed}"

        for seed in range(8):
            corpus = PackedCorpus.of(random_corpus(seed)[0])
            # One feature has no pair to grid: one point, and no pool.
            spec = ((0, 1),) if corpus.feature_dim >= 2 else ()
            serial = rss_optimize(corpus, corpus, rotation_spec=spec, grid=grid, jobs=1)
            pooled = rss_optimize(corpus, corpus, rotation_spec=spec, grid=grid, jobs=4)
            assert repr(serial) == repr(pooled), f"seed {seed}"

        adv = PackedCorpus.of(adversarial_instance())
        serial = rss_optimize(adv, adv, (1.0, 1.0), rotation_spec=((0, 1),), jobs=1)
        parallel = rss_optimize(adv, adv, (1.0, 1.0), rotation_spec=((0, 1),), jobs=4)
        assert serial == parallel
        assert report_tsv(serial, adv.feature_names) == report_tsv(
            parallel, adv.feature_names
        )
