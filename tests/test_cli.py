import json
import locale
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from itertools import chain
from pathlib import Path

import pytest

from rotamert import bleu, cli
from rotamert.bleu import row_bleu
from rotamert.cli import RunConfig, build_parser, main, resolve_config
from rotamert.corpus import build_corpus, parse_nbest, parse_references
from rotamert.descent import SWEEP_MODES, KcdConfig
from rotamert.errors import InputError
from rotamert.rotation import AlphaGrid

from oracles import clipped_stats_by_counting, sum_rows

DATA = Path(__file__).parent / "data"
# The CLI in a fresh interpreter whose pools start workers by spawn,
# for any amount of work.
SPAWN_MAIN = (
    "import multiprocessing, sys\n"
    "multiprocessing.set_start_method('spawn', force=True)\n"
    "import rotamert.rotation\n"
    "rotamert.rotation.POOL_MIN_ROWS = 0\n"
    "from rotamert.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)

# Characters at which str.splitlines breaks a line and text-mode files do not;
# each is whitespace to str.split, so inside a line it separates tokens.
INLINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# Byte 0xff starts no UTF-8 sequence; input files are read in the locale's encoding.
UNDECODABLE = b"a \xff b\n"


def _locale_decodes(data):
    try:
        data.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        return False
    return True


needs_strict_encoding = pytest.mark.skipif(
    _locale_decodes(UNDECODABLE), reason="the locale encoding decodes byte 0xff"
)
# --out targets that cannot be a directory: a regular file, and a path inside one.
BLOCKED_OUT = [("taken",), ("taken", "run")]


def spawn_main(argv):
    """The CLI on ``argv`` in a fresh interpreter by :data:`SPAWN_MAIN`, its output captured."""
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", SPAWN_MAIN, *argv], capture_output=True, env=env, timeout=120)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err, path):
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err


def blocked_out(tmp_path, parts):
    (tmp_path / parts[0]).write_text("")
    return tmp_path.joinpath(*parts)


@pytest.fixture
def adversarial_files(tmp_path):
    nbest = tmp_path / "tune.nbest"
    ref = tmp_path / "tune.ref"
    shutil.copy(DATA / "adversarial.nbest", nbest)
    shutil.copy(DATA / "adversarial.ref", ref)
    return nbest, ref


@pytest.fixture
def featureless_files(tmp_path):
    # Score lines whose feature field is empty.
    nbest = tmp_path / "bare.nbest"
    ref = tmp_path / "bare.ref"
    nbest.write_text("0 ||| a b c ||| ||| 0\n0 ||| a c ||| ||| 0\n")
    ref.write_text("a b c\n")
    return nbest, ref


class TestScore:
    def test_fixed_corpus_scores_65_68(self, capsys):
        code, out, _ = run(
            [
                "score",
                str(DATA / "score.hyp"),
                str(DATA / "score.ref0"),
                str(DATA / "score.ref1"),
            ],
            capsys,
        )
        assert code == 0
        assert out == "65.68\n"

    def test_perfect_translation_scores_100(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("the cat sat on the mat\n")
        code, out, _ = run(["score", str(hyp), str(hyp)], capsys)
        assert code == 0
        assert out == "100.00\n"

    def test_disjoint_translation_scores_0(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("aa bb cc dd\n")
        ref.write_text("xx yy zz ww\n")
        code, out, _ = run(["score", str(hyp), str(ref)], capsys)
        assert code == 0
        assert out == "0.00\n"

    def test_blank_and_non_ascii_lines_score_as_the_counting_oracle(self, tmp_path, capsys):
        hyp_lines = ["", "日本 語 の größe ist gut", "ça va ça va ça va", "x"]
        ref_lines = [
            ["a b c", "日本 語 の größe ist gut .", "ça va", "x y"],
            ["d", "日本 語 の größe", "ça va ça va ça", "y"],
        ]
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("\n".join(hyp_lines) + "\n", encoding="utf-8")
        refs = []
        for j, lines in enumerate(ref_lines):
            refs.append(tmp_path / f"ref{j}.txt")
            refs[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = row_bleu(
            sum_rows(
                clipped_stats_by_counting(
                    tuple(line.split()), [tuple(lines[i].split()) for lines in ref_lines]
                )
                for i, line in enumerate(hyp_lines)
            )
        )
        code, out, _ = run(["score", str(hyp), *map(str, refs)], capsys)
        assert code == 0
        assert expected.bleu > 0.0
        assert out == f"{expected.bleu * 100.0:.2f}\n"

    @pytest.mark.parametrize("separator", INLINE_BREAKS)
    def test_lines_split_only_at_line_ends(self, separator, tmp_path, capsys):
        # Each file holds 2 lines; the separator stands for a space inside one of each.
        scores = []
        for name, sep in (("clean", " "), ("broken", separator)):
            hyp, ref = tmp_path / f"{name}.hyp", tmp_path / f"{name}.ref"
            hyp.write_text(f"the cat sat{sep}on the mat\na dog ran in the park\n", encoding="utf-8")
            ref.write_text(f"the cat sat on the mat\na dog ran{sep}in the park today\n", encoding="utf-8")
            scores.append(run(["score", str(hyp), str(ref)], capsys))
        assert scores[0] == (0, "92.00\n", "")
        assert scores[1] == scores[0]

    def test_line_count_mismatch_exits_2(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b\nc d\n")
        ref.write_text("a b\n")
        code, _, err = run(["score", str(hyp), str(ref)], capsys)
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            ["score", str(tmp_path / "nope.txt"), str(tmp_path / "nope.ref")],
            capsys,
        )
        assert code == 2
        assert "error:" in err


    # Each case also breaks every later check, so the error printed is the first in
    # the order: hypothesis file, reference files, reference line counts, a sentence
    # whose references are all blank, the hypothesis line count.
    @pytest.mark.parametrize(
        "files, message",
        [
            (
                {"ref0": "a\n\n", "ref1": "b\n"},
                "cannot read {hyp}: [Errno 2] No such file or directory: '{hyp}'",
            ),
            (
                {"hyp": "a\nb\nc\n", "ref0": "a\n\n", "ref2": "b\n"},
                "cannot read {ref1}: [Errno 2] No such file or directory: '{ref1}'",
            ),
            (
                {"hyp": "a\nb\nc\n", "ref0": "a\n\n", "ref1": " \n\t\n", "ref2": "b\n"},
                "reference files disagree on line counts ({ref0}: 2, {ref1}: 2, {ref2}: 1)",
            ),
            (
                {"hyp": "a\nb\nc\n", "ref0": "a\n\n", "ref1": "b\n \n", "ref2": "c\n\t\n"},
                "sentence 1 has no non-blank reference",
            ),
            (
                {"hyp": "a\nb\nc\n", "ref0": "a\n\n", "ref1": "b\nc\n", "ref2": "\n\n"},
                "{hyp} has 3 lines, references have 2",
            ),
        ],
    )
    def test_refusals_keep_their_order_and_text(self, tmp_path, files, message, capsys):
        paths = {name: tmp_path / f"{name}.txt" for name in ("hyp", "ref0", "ref1", "ref2")}
        for name, text in files.items():
            paths[name].write_text(text)
        code, out, err = run(["score", *map(str, paths.values())], capsys)
        assert (code, out, err) == (2, "", f"error: {message.format_map(paths)}\n")

    def test_a_vocabulary_too_large_for_its_ids_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bleu, "MAX_VOCABULARY", 3)
        hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
        hyp.write_text("a b\na\n")
        ref.write_text("b c\nd\n")
        code, out, err = run(["score", str(hyp), str(ref)], capsys)
        assert (code, out, err) == (2, "", "error: the input holds more than 3 distinct tokens\n")

    @needs_strict_encoding
    @pytest.mark.parametrize("bad", ["hyp", "ref"])
    def test_undecodable_file_exits_2(self, tmp_path, bad, capsys):
        files = {name: tmp_path / f"{name}.txt" for name in ("hyp", "ref")}
        for path in files.values():
            path.write_text("a b\n")
        files[bad].write_bytes(UNDECODABLE)
        code, _, err = run(["score", str(files["hyp"]), str(files["ref"])], capsys)
        assert code == 2
        assert_one_error_line(err, files[bad])


# One value per tuning setting, each different from its default.
SETTING_VALUES = {
    "nbest": "tune.nbest",
    "refs": "a.ref, b.ref",
    "open_nbest": "held.nbest",
    "open_refs": "c.ref,d.ref",
    "init_weights": "0.5, -1.5",
    "epsilon": "0.25",
    "max_iter": "7",
    "sweep_mode": "best-direction",
    "rotations": "0:1,1:2=0.5",
    "grid_start": "-0.5",
    "grid_end": "0.75",
    "grid_step": "0.25",
    "out": "run",
    "jobs": str(os.cpu_count() or 1),
}


class TestSettings:
    @pytest.mark.parametrize("key", [spec.name for spec in fields(RunConfig)])
    def test_flag_and_config_key_resolve_alike(self, key, tmp_path):
        value = SETTING_VALUES[key]
        flag = "--rotate" if key == "rotations" else "--" + key.replace("_", "-")
        from_flag = resolve_config(build_parser().parse_args(["rss", flag, value]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        from_file = resolve_config(build_parser().parse_args(["rss", "--config", str(cfg)]))
        assert from_flag == from_file
        if value != "1":  # jobs on a one-CPU machine can only be the default
            assert getattr(from_flag, key) != getattr(RunConfig(), key)

    def test_defaults_are_the_tuning_cores(self):
        # RunConfig writes them out so that reading flags loads no tuning module.
        cfg, kcd, grid = RunConfig(), KcdConfig(), AlphaGrid()
        assert (cfg.epsilon, cfg.max_iter, cfg.sweep_mode) == (kcd.epsilon, kcd.max_iter, kcd.sweep_mode)
        assert (cfg.grid_start, cfg.grid_end, cfg.grid_step) == (grid.start, grid.end, grid.step)
        sweep_help = next(spec for spec in fields(RunConfig) if spec.name == "sweep_mode").metadata["help"]
        assert sweep_help.endswith(": " + ", ".join(SWEEP_MODES))


class TestMert:
    def test_tunes_and_writes_outputs(self, adversarial_files, tmp_path, capsys):
        nbest, ref = adversarial_files
        out_dir = tmp_path / "run"
        code, out, _ = run(
            [
                "mert",
                "--nbest",
                str(nbest),
                "--refs",
                str(ref),
                "--init-weights",
                "1.0, 1.0",
                "--out",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        assert out == "51.49\n"
        weights = (out_dir / "weights.txt").read_text().split()
        assert len(weights) == 2
        float(weights[0]), float(weights[1])
        trace_rows = (out_dir / "trace.tsv").read_text().splitlines()
        assert trace_rows[0] == "iter\tdim\tgamma\terror\tbleu"
        assert len(trace_rows) > 1

    def test_a_line_break_inside_the_token_field_keeps_the_line(self, adversarial_files, tmp_path, capsys):
        nbest, ref = adversarial_files
        clean = nbest.read_text(encoding="utf-8")
        first, rest = clean.split("\n", 1)
        fields = first.split(" ||| ")
        assert " " in fields[1]
        fields[1] = fields[1].replace(" ", "\u2028", 1)
        broken = tmp_path / "broken.nbest"
        broken.write_text(" ||| ".join(fields) + "\n" + rest, encoding="utf-8")
        outputs = []
        for name, path in (("clean", nbest), ("broken", broken)):
            out_dir = tmp_path / name
            argv = ["mert", "--nbest", str(path), "--refs", str(ref), "--init-weights", "1 1", "--out", str(out_dir)]
            code, stdout, err = run(argv, capsys)
            assert code == 0, err
            outputs.append((stdout, (out_dir / "weights.txt").read_text(), (out_dir / "trace.tsv").read_text()))
        assert outputs[1] == outputs[0]

    def test_init_weights_from_file(self, adversarial_files, tmp_path, capsys):
        nbest, ref = adversarial_files
        wfile = tmp_path / "w.txt"
        wfile.write_text("1.0\n1.0\n")
        code, out, _ = run(
            [
                "mert",
                "--nbest",
                str(nbest),
                "--refs",
                str(ref),
                "--init-weights",
                str(wfile),
                "--out",
                str(tmp_path / "run"),
            ],
            capsys,
        )
        assert code == 0
        assert out == "51.49\n"

    def test_config_file_supplies_settings(self, adversarial_files, tmp_path, capsys):
        nbest, ref = adversarial_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tuning settings\n"
            f"nbest = {nbest}\n"
            f"refs = {ref}\n"
            "init_weights = 1.0, 1.0\n"
            f"out = {tmp_path / 'run'}\n"
        )
        code, out, _ = run(["mert", "--config", str(cfg)], capsys)
        assert code == 0
        assert out == "51.49\n"
        assert (tmp_path / "run" / "weights.txt").exists()

    def test_flag_overrides_config(self, adversarial_files, tmp_path, capsys):
        nbest, ref = adversarial_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"nbest = {nbest}\n"
            f"refs = {ref}\n"
            "init_weights = 1.0, 1.0\n"
            "max-iter = 1\n"
            f"out = {tmp_path / 'a'}\n"
        )
        code, _, _ = run(["mert", "--config", str(cfg)], capsys)
        assert code == 0
        rows_a = (tmp_path / "a" / "trace.tsv").read_text().splitlines()
        assert {r.split("\t")[0] for r in rows_a[1:]} == {"1"}

        code, _, _ = run(
            [
                "mert",
                "--config",
                str(cfg),
                "--max-iter",
                "5",
                "--out",
                str(tmp_path / "b"),
            ],
            capsys,
        )
        assert code == 0
        rows_b = (tmp_path / "b" / "trace.tsv").read_text().splitlines()
        assert "2" in {r.split("\t")[0] for r in rows_b[1:]}

    def test_unknown_config_key_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for key in ("mystery", "seed"):  # synth --seed is no tuning setting
            cfg.write_text(f"{key} = 1\n")
            code, _, err = run(["mert", "--config", str(cfg)], capsys)
            assert code == 3, key
            assert "unknown setting" in err, key

    def test_config_line_without_equals_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, _ = run(["mert", "--config", str(cfg)], capsys)
        assert code == 3

    def test_missing_nbest_setting_exits_3(self, capsys):
        code, _, err = run(["mert"], capsys)
        assert code == 3
        assert "error:" in err

    def test_bad_inline_weights_exit_3(self, adversarial_files, tmp_path, capsys):
        nbest, ref = adversarial_files
        code, _, _ = run(
            [
                "mert",
                "--nbest",
                str(nbest),
                "--refs",
                str(ref),
                "--init-weights",
                "one, two",
            ],
            capsys,
        )
        assert code == 3

    @pytest.mark.parametrize("weights", ["nan 1", "1 inf", "-inf -inf"])
    def test_non_finite_init_weights_exit_3(self, adversarial_files, weights, capsys):
        nbest, ref = adversarial_files
        code, _, err = run(
            ["mert", "--nbest", str(nbest), "--refs", str(ref), "--init-weights", weights],
            capsys,
        )
        assert code == 3
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

    def test_overflowing_scores_exit_2(self, tmp_path, capsys):
        # Finite features and weights whose products overflow to inf.
        nbest = tmp_path / "big.nbest"
        ref = tmp_path / "ref.txt"
        nbest.write_text(
            "0 ||| a b ||| 1e300 1 ||| 0\n0 ||| a c ||| -1e300 2 ||| 0\n"
        )
        ref.write_text("a b\n")
        code, _, err = run(
            [
                "mert", "--nbest", str(nbest), "--refs", str(ref),
                "--init-weights", "1e10 1", "--out", str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not finite" in err

    def test_jobs_flag_is_rss_only(self, capsys):
        # mert runs one descent; --jobs sets rss's alpha-grid processes.
        with pytest.raises(SystemExit) as exit_info:
            main(["mert", "--nbest", "missing.nbest", "--refs", "missing.ref", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_config_file_may_hold_rss_settings(self, adversarial_files, tmp_path, capsys):
        nbest, ref = adversarial_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 1\nrotations = 0:1\ngrid_step = 0.5\nopen_nbest = x\n")
        args = ["--nbest", str(nbest), "--refs", str(ref), "--init-weights", "1 1"]
        code, out, _ = run(["mert", "--config", str(cfg), *args, "--out", str(tmp_path / "a")], capsys)
        assert (code, out) == (0, "51.49\n")
        assert run(["mert", *args, "--out", str(tmp_path / "b")], capsys)[:2] == (0, out)
        for name in ("weights.txt", "trace.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_malformed_nbest_exits_2(self, tmp_path, capsys):
        nbest = tmp_path / "bad.nbest"
        ref = tmp_path / "ref.txt"
        nbest.write_text("0 ||| broken line\n")
        ref.write_text("a b\n")
        code, _, err = run(
            ["mert", "--nbest", str(nbest), "--refs", str(ref)], capsys
        )
        assert code == 2
        assert "error:" in err


    def test_nbest_without_features_exits_2(self, featureless_files, capsys):
        nbest, ref = featureless_files
        code, _, err = run(["mert", "--nbest", str(nbest), "--refs", str(ref)], capsys)
        assert code == 2
        assert_one_error_line(err, "feature field is empty")

    @needs_strict_encoding
    @pytest.mark.parametrize(
        "flag, exit_code",
        [("--nbest", 2), ("--refs", 2), ("--config", 3), ("--init-weights", 3)],
    )
    def test_undecodable_file_exits_with_one_error_line(
        self, adversarial_files, tmp_path, flag, exit_code, capsys
    ):
        nbest, ref = adversarial_files
        bad = tmp_path / "bad.txt"
        bad.write_bytes(UNDECODABLE)
        settings = {
            "--nbest": str(nbest),
            "--refs": str(ref),
            "--init-weights": "1 1",
            "--out": str(tmp_path / "run"),
            flag: str(bad),
        }
        code, _, err = run(["mert", *chain.from_iterable(settings.items())], capsys)
        assert code == exit_code
        assert_one_error_line(err, bad)

    @pytest.mark.parametrize("setting, exit_code", [("nbest", 2), ("out", 3), ("config", 3)])
    def test_nul_byte_in_a_configured_path_exits_with_one_error_line(
        self, adversarial_files, tmp_path, setting, exit_code, capsys
    ):
        nbest, ref = adversarial_files
        settings = {"nbest": nbest, "refs": ref, "out": tmp_path / "run", setting: "a\0b"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items() if key != "config"))
        code, _, err = run(["mert", "--config", str(settings.get("config", cfg))], capsys)
        assert code == exit_code
        assert_one_error_line(err, "a\0b")

    @pytest.mark.parametrize("parts", BLOCKED_OUT)
    def test_unwritable_out_exits_3(self, adversarial_files, tmp_path, parts, capsys):
        nbest, ref = adversarial_files
        out = blocked_out(tmp_path, parts)
        code, stdout, err = run(
            ["mert", "--nbest", str(nbest), "--refs", str(ref), "--out", str(out)], capsys
        )
        assert (code, stdout) == (3, "")
        assert_one_error_line(err, out)


class TestRss:
    def test_full_grid_run(self, adversarial_files, tmp_path, capsys):
        nbest, ref = adversarial_files
        out_dir = tmp_path / "run"
        code, out, _ = run(
            [
                "rss",
                "--nbest",
                str(nbest),
                "--refs",
                str(ref),
                "--open-nbest",
                str(nbest),
                "--open-refs",
                str(ref),
                "--init-weights",
                "1,1",
                "--rotate",
                "0:1",
                "--out",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "selected alpha: +0.2"
        assert lines[1] == "system\talpha\tclosed_bleu\topen_bleu"
        assert lines[2].startswith("baseline\t\t51.49")
        assert lines[3].startswith("best\t+0.2\t100.00")
        report = (out_dir / "report.tsv").read_text()
        block, _ = report.split("\n\n")
        assert len(block.splitlines()) == 22
        weights = (out_dir / "weights.txt").read_text().split()
        assert len(weights) == 2

    def test_custom_grid_flags(self, adversarial_files, tmp_path, capsys):
        nbest, ref = adversarial_files
        out_dir = tmp_path / "run"
        code, out, _ = run(
            [
                "rss",
                "--nbest",
                str(nbest),
                "--refs",
                str(ref),
                "--open-nbest",
                str(nbest),
                "--open-refs",
                str(ref),
                "--rotate",
                "0:1",
                "--grid-start",
                "-0.2",
                "--grid-end",
                "0.2",
                "--grid-step",
                "0.2",
                "--out",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        block, _ = (out_dir / "report.tsv").read_text().split("\n\n")
        assert len(block.splitlines()) == 4

    def test_rss_requires_a_rotation(self, adversarial_files, capsys):
        nbest, ref = adversarial_files
        code, _, err = run(
            [
                "rss",
                "--nbest",
                str(nbest),
                "--refs",
                str(ref),
                "--open-nbest",
                str(nbest),
                "--open-refs",
                str(ref),
            ],
            capsys,
        )
        assert code == 3
        assert "rotation" in err

    def test_nbest_without_features_exits_2(self, featureless_files, capsys):
        nbest, ref = featureless_files
        args = ["--nbest", nbest, "--refs", ref, "--open-nbest", nbest, "--open-refs", ref]
        code, _, err = run(["rss", *map(str, args), "--rotate", "0:1"], capsys)
        assert code == 2
        assert_one_error_line(err, "feature field is empty")

    def test_repeated_feature_names_exit_2(self, tmp_path, capsys):
        nbest = tmp_path / "named.nbest"
        ref = tmp_path / "named.ref"
        nbest.write_text("0 ||| a b ||| tm: 1 2 tm0: 3 ||| 6\n0 ||| a ||| tm: 2 1 tm0: 0 ||| 3\n")
        ref.write_text("a b\n")
        args = ["--nbest", nbest, "--refs", ref, "--open-nbest", nbest, "--open-refs", ref]
        code, stdout, err = run(["rss", *map(str, args), "--rotate", "0:1"], capsys)
        assert (code, stdout) == (2, "")
        assert_one_error_line(err, f"{nbest}:1: feature names repeat: tm0")

    def test_bad_rotation_syntax_exits_3(self, adversarial_files, capsys):
        nbest, ref = adversarial_files
        code, _, _ = run(
            [
                "rss",
                "--nbest",
                str(nbest),
                "--refs",
                str(ref),
                "--open-nbest",
                str(nbest),
                "--open-refs",
                str(ref),
                "--rotate",
                "0-1",
            ],
            capsys,
        )
        assert code == 3

    def test_invalid_grid_exits_3(self, adversarial_files, capsys):
        nbest, ref = adversarial_files
        code, _, _ = run(
            [
                "rss",
                "--nbest",
                str(nbest),
                "--refs",
                str(ref),
                "--open-nbest",
                str(nbest),
                "--open-refs",
                str(ref),
                "--rotate",
                "0:1",
                "--grid-step",
                "-0.1",
            ],
            capsys,
        )
        assert code == 3


    def rss_args(self, adversarial_files, *extra):
        nbest, ref = adversarial_files
        return [
            "rss", "--nbest", str(nbest), "--refs", str(ref),
            "--open-nbest", str(nbest), "--open-refs", str(ref), *extra,
        ]

    @pytest.mark.parametrize(
        "extra",
        [
            ("--rotate", "0:1", "--grid-start", "nan"),
            ("--rotate", "0:1", "--grid-end", "inf"),
            ("--rotate", "0:1=nan"),
            ("--rotate", "0:1", "--init-weights", "nan nan"),
            ("--rotate", "0:1", "--epsilon", "inf"),
        ],
    )
    def test_non_finite_settings_exit_3(self, adversarial_files, extra, capsys):
        code, _, err = run(self.rss_args(adversarial_files, *extra), capsys)
        assert code == 3
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

    def test_oversized_grid_exits_3(self, adversarial_files, capsys):
        code, _, err = run(
            self.rss_args(adversarial_files, "--rotate", "0:1", "--grid-step", "1e-9"),
            capsys,
        )
        assert code == 3
        assert "points" in err

    @pytest.mark.parametrize("jobs", [0, -3, (os.cpu_count() or 1) + 1])
    def test_jobs_out_of_range_exit_3(self, jobs, capsys):
        # Rejected before any input is read.
        code, _, err = run(
            ["rss", "--nbest", "missing.nbest", "--refs", "missing.ref", "--rotate", "0:1",
             "--jobs", str(jobs)],
            capsys,
        )
        assert code == 3
        assert "jobs" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--epsilon", "abc"),
            ("--max-iter", "1.5"),
            ("--jobs", "two"),
            ("--grid-start", "x"),
            ("--grid-end", "1e"),
            ("--grid-step", ""),
            ("--sweep-mode", "bogus"),
        ],
    )
    def test_bad_flag_value_exits_3(self, adversarial_files, flag, value, capsys):
        code, stdout, err = run(
            self.rss_args(adversarial_files, "--rotate", "0:1", flag, value), capsys
        )
        assert (code, stdout) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag.lstrip("-").replace("-", "_") in err.replace("-", "_")

    def test_jobs_above_cpu_count_exits_3(self, adversarial_files, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, _, err = run(
            self.rss_args(adversarial_files, "--rotate", "0:1", "--jobs", "3"), capsys
        )
        assert code == 3
        assert "between 1 and 2" in err

    @pytest.mark.parametrize("parts", BLOCKED_OUT)
    def test_unwritable_out_exits_3(self, adversarial_files, tmp_path, parts, capsys):
        out = blocked_out(tmp_path, parts)
        code, stdout, err = run(
            self.rss_args(adversarial_files, "--rotate", "0:1", "--out", str(out)), capsys
        )
        assert (code, stdout) == (3, "")
        assert_one_error_line(err, out)

    @pytest.mark.parametrize(
        "item, message",
        [("0:x", "rotation '0:x' has non-integer dimensions"),
         ("0:1=abc", "rotation '0:1=abc' has a non-numeric alpha")],
    )
    def test_bad_rotation_item_exits_3_naming_it(self, adversarial_files, item, message, capsys):
        code, stdout, err = run(self.rss_args(adversarial_files, "--rotate", item), capsys)
        assert (code, stdout, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "rotate, message",
        [
            ("0:1,2:3", "only the first rotation may omit alpha (it is the gridded one); "
                        "fix alpha for the others"),
            ("0:0", "rotation maps dimension 0 onto itself"),
            ("0:1=nan", "rotation alpha must be finite, got nan"),
            ("0:1,0:2=0.5", "dimension 0 has already been rotated"),
            ("-1:0", "rotation dimensions must be non-negative, got (-1, 0)"),
            ("0:1;1:2=0.5", "rotation '0:1;1:2=0.5' is not of the form A:B[=alpha]"),
        ],
    )
    def test_rotation_faults_exit_3_before_a_file_is_read(
        self, adversarial_files, monkeypatch, rotate, message, capsys
    ):
        def refuse(path):
            raise AssertionError(f"read {path} before checking the rotations")

        monkeypatch.setattr(cli, "_read_text", refuse)
        code, stdout, err = run(self.rss_args(adversarial_files, f"--rotate={rotate}"), capsys)
        assert (code, stdout, err) == (3, "", f"error: {message}\n")

    def test_rotation_range_is_checked_against_the_data(self, adversarial_files, capsys):
        code, stdout, err = run(self.rss_args(adversarial_files, "--rotate", "0:2"), capsys)
        assert (code, stdout) == (3, "")
        assert_one_error_line(err, "out of range for 2 dimensions")

    def test_a_large_named_dimension_is_checked_against_the_data(
        self, adversarial_files, monkeypatch, capsys
    ):
        code, stdout, err = run(self.rss_args(adversarial_files, "--rotate", "0:1000000"), capsys)
        assert (code, stdout) == (3, "")
        assert_one_error_line(err, "(0 -> 1000000) out of range for 2 dimensions")

        def refuse(path):
            raise AssertionError(f"read {path} before checking the rotations")

        monkeypatch.setattr(cli, "_read_text", refuse)
        for rotate, message in (
            ("0:1000000,0:2", "only the first rotation may omit alpha (it is the gridded one); "
                              "fix alpha for the others"),
            ("0:1000000,0:5=0.5", "dimension 0 has already been rotated"),
        ):
            code, stdout, err = run(self.rss_args(adversarial_files, f"--rotate={rotate}"), capsys)
            assert (code, stdout, err) == (3, "", f"error: {message}\n")

    def test_empty_rotation_items_are_skipped(self, adversarial_files, tmp_path, capsys):
        outputs = []
        for rotate in ("0:1", "0:1,,"):
            out = tmp_path / rotate
            code, stdout, _ = run(
                self.rss_args(adversarial_files, "--rotate", rotate, "--out", str(out)), capsys
            )
            assert code == 0
            files = [(out / name).read_text() for name in ("report.tsv", "weights.txt")]
            outputs.append((stdout, *files))
        assert outputs[0] == outputs[1]

    def test_closed_references_are_required(self, adversarial_files, capsys):
        nbest, _ = adversarial_files
        code, stdout, err = run(["rss", "--nbest", str(nbest), "--rotate", "0:1"], capsys)
        assert (code, stdout, err) == (3, "", "error: no closed reference files configured\n")

    def test_a_failing_block_prints_the_serial_error(self, adversarial_files, tmp_path, monkeypatch, capsys):
        # Injected faults along each point's tilted axis: the first alpha
        # above 0.45 fails at its second sweep, every later alpha at its
        # first.  A serial run meets the earlier point's fault first; a block
        # descending in lockstep meets the later ones first and reruns its
        # points one at a time.  Sweeps are counted per descent run.
        import rotamert.descent

        real_search, real_lockstep = rotamert.descent.line_search, rotamert.descent._lockstep
        sweeps, blocks = {}, []

        def failing_search(packed, starts, plans):
            for plan in plans:
                if len(plan.direction) == 2:  # the tilted axis, searched once per sweep
                    alpha = plan.direction[1][1]
                    sweeps[alpha] = sweeps.get(alpha, 0) + 1
                    if alpha > 0.55 or (alpha > 0.45 and sweeps[alpha] == 2):
                        raise InputError(f"alpha {alpha:+g} fails at sweep {sweeps[alpha]}")
            return real_search(packed, starts, plans)

        def counted_lockstep(packed, systems, *args):
            sweeps.clear()
            blocks.append(len(systems))
            return real_lockstep(packed, systems, *args)

        monkeypatch.setattr(rotamert.descent, "line_search", failing_search)
        monkeypatch.setattr(rotamert.descent, "_lockstep", counted_lockstep)
        argv = self.rss_args(adversarial_files, "--rotate", "0:1", "--out", str(tmp_path / "out"))
        blocked = run(argv, capsys)
        assert blocks == [21] + [1] * 16  # one block of the grid, then its serial rerun up to alpha +0.5
        assert blocked == (2, "", "error: alpha +0.5 fails at sweep 2\n")
        # One descent per block and one search per call is the serial run.
        monkeypatch.setattr(rotamert.descent, "BLOCK_ROWS", 1)
        blocks.clear()
        assert run(argv, capsys) == blocked
        assert blocks == [1] * 16  # alpha -1 to +0.5 once each: a serial run raises at once

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")
    def test_spawned_workers_write_the_serial_bytes(self, tmp_path, capsys):
        # Spawned workers inherit nothing, so all they need must reach them explicitly.
        data = tmp_path / "data"
        synth = ["synth", "--sentences", "6", "--hyps", "5", "--features", "3", "--seed", "4"]
        assert run([*synth, "--out", str(data)], capsys)[0] == 0
        args = ["rss", "--rotate", "0:1"]
        for side, prefix in (("closed", "--"), ("open", "--open-")):
            refs = ",".join(str(data / f"{side}.ref{j}") for j in range(4))
            args += [f"{prefix}nbest", str(data / f"{side}.nbest"), f"{prefix}refs", refs]
        outputs = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            proc = spawn_main([*args, "--jobs", jobs, "--out", str(out_dir)])
            assert proc.returncode == 0, proc.stderr.decode()
            written = [(out_dir / name).read_bytes() for name in ("report.tsv", "weights.txt")]
            outputs.append((proc.stdout, *written))
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")
    def test_a_failing_pooled_grid_prints_the_serial_error(self, tmp_path):
        # From weights (1, 0) the first point, alpha -1, descends; at the
        # second, alpha -0.9, the tilted axis' scores overflow.  Every point
        # runs in a worker, the first too.
        nbest, ref = tmp_path / "big.nbest", tmp_path / "big.ref"
        nbest.write_text(
            "0 ||| a b ||| 1e308 1e308 ||| 0\n0 ||| a c ||| 0 0 ||| 0\n"
            "1 ||| b c ||| 0 0 ||| 0\n1 ||| c ||| 1e308 1e308 ||| 0\n"
        )
        ref.write_text("a b\nb c\n")
        args = ["rss", "--rotate", "0:1", "--init-weights", "1 0"]
        args += ["--nbest", str(nbest), "--refs", str(ref), "--open-nbest", str(nbest), "--open-refs", str(ref)]
        runs = [spawn_main([*args, "--jobs", jobs, "--out", str(tmp_path / jobs)]) for jobs in ("1", "2")]
        message = b"error: feature values times weights overflow: a hypothesis score is not finite\n"
        assert [(proc.returncode, proc.stdout, proc.stderr) for proc in runs] == [(2, b"", message)] * 2


# Malformed inputs: N-best text, reference texts, and the error class and
# message that mert prints, which the object API raises too.  {nbest} and
# {ref0} stand for the files' paths.
GOOD_NBEST = "0 ||| a b ||| 1.0 2.0 ||| 3.0\n1 ||| c ||| 0.5 0.25 ||| 0.75\n"
MALFORMED = {
    "field count": ("0 ||| a b ||| 1.0 2.0\n", ["a b\n"], "MalformedLine",
                    "{nbest}:1: expected 4 fields separated by '|||', got 3"),
    "id": ("x ||| a ||| 1.0 ||| 1.0\n", ["a\n"], "MalformedLine", "{nbest}:1: sentence id 'x' is not an integer"),
    "negative id": ("-1 ||| a ||| 1.0 ||| 1.0\n", ["a\n"], "MalformedLine", "{nbest}:1: negative sentence id -1"),
    "empty hypothesis": ("0 ||| a ||| 1.0 ||| 1.0\n0 |||  ||| 1.0 ||| 1.0\n", ["a\n"], "MalformedLine",
                         "{nbest}:2: empty hypothesis"),
    "non-numeric feature": ("0 ||| a ||| 1.0 oops ||| 1.0\n", ["a\n"], "NonNumericFeature",
                            "{nbest}:1: feature value 'oops' is not a number"),
    "non-finite feature": ("0 ||| a ||| 1.0 nan ||| 1.0\n", ["a\n"], "NonNumericFeature",
                           "{nbest}:1: feature value 'nan' is not finite"),
    # The first faulty value of a line is the one reported.
    "non-finite, then non-numeric": ("0 ||| a ||| inf oops ||| 1.0\n", ["a\n"], "NonNumericFeature",
                                     "{nbest}:1: feature value 'inf' is not finite"),
    "finite values overflowing their sum": ("0 ||| a ||| 1e308 1e308 x ||| 1.0\n", ["a\n"], "NonNumericFeature",
                                            "{nbest}:1: feature value 'x' is not a number"),
    "feature count": ("0 ||| a ||| 1.0 2.0 ||| 3.0\n0 ||| b ||| 1.0 ||| 1.0\n", ["a\n"], "InconsistentFeatureCount",
                      "{nbest}:2: expected 2 features, got 1"),
    "label order": ("0 ||| a ||| lm: 1 tm: 2 ||| 3\n0 ||| b ||| tm: 1 lm: 2 ||| 3\n", ["a\n"], "MalformedLine",
                    "{nbest}:2: expected the first labeled line's labels at the same positions: lm: tm:"),
    "repeated names": ("0 ||| a ||| tm: 1 2 tm0: 3 ||| 6\n", ["a\n"], "MalformedLine",
                       "{nbest}:1: feature names repeat: tm0"),
    "total field": ("0 ||| a ||| 1.0 ||| total\n", ["a\n"], "NonNumericFeature",
                    "{nbest}:1: total field 'total' is not a number"),
    "id mismatch": (GOOD_NBEST, ["a b\n"], "IdMismatch",
                    "N-best ids and reference ids differ (only in N-best: [1], only in refs: [])"),
    "an id far beyond the references": ("0 ||| a ||| 1.0 ||| 1.0\n1000000000000 ||| a ||| 1.0 ||| 1.0\n", ["a\n"],
                                        "IdMismatch",
                                        "N-best ids and reference ids differ (only in N-best: [1000000000000], only in refs: [])"),
    "empty corpus": ("", [""], "EmptyCorpus", "corpus has no sentences"),
    "empty N-best file": ("", ["a\n"], "IdMismatch",
                          "N-best ids and reference ids differ (only in N-best: [], only in refs: [0])"),
    "empty feature field": ("0 ||| a b ||| ||| 0\n0 ||| a ||| ||| 0\n", ["a b\n"], "MalformedLine",
                            "the feature field is empty: hypotheses need at least one feature value"),
    "reference line counts": (GOOD_NBEST, ["a b\nc\n", "a\n"], "LengthMismatch",
                              "reference files disagree on line counts ({ref0}: 2, {ref1}: 1)"),
    "all-blank reference row": (GOOD_NBEST, ["a b\n\n", "a\n  \n"], "NoReferences",
                                "sentence 1 has no non-blank reference"),
    # The N-best file is read first, so its fault wins over the references'.
    "N-best and reference faults": ("0 ||| a ||| oops ||| 1\n", ["a\n", "a\nb\n"], "NonNumericFeature",
                                    "{nbest}:1: feature value 'oops' is not a number"),
}


def object_api_error(nbest, refs):
    """The class name and message of what parse_nbest, parse_references and build_corpus raise."""
    try:
        by_id, names = parse_nbest(Path(nbest).read_text().splitlines(), source=nbest)
        references = parse_references([Path(p).read_text().splitlines() for p in refs], sources=refs)
        build_corpus(by_id, references, names)
    except InputError as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_mert_prints_the_error_the_object_api_raises(case, tmp_path, capsys):
    nbest_text, ref_texts, error, message = MALFORMED[case]
    nbest = tmp_path / "tune.nbest"
    nbest.write_text(nbest_text)
    refs = []
    for j, text in enumerate(ref_texts):
        refs.append(str(tmp_path / f"tune.ref{j}"))
        Path(refs[-1]).write_text(text)
    expected = message.format(nbest=nbest, **{f"ref{j}": ref for j, ref in enumerate(refs)})
    assert object_api_error(str(nbest), refs) == (error, expected)
    argv = ["mert", "--nbest", str(nbest), "--refs", ",".join(refs), "--out", str(tmp_path / "run")]
    assert run(argv, capsys) == (2, "", f"error: {expected}\n")


class TestSynth:
    def test_generates_corpus_pair(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        code, _, _ = run(
            [
                "synth",
                "--sentences",
                "4",
                "--hyps",
                "3",
                "--features",
                "2",
                "--ref-count",
                "2",
                "--seed",
                "7",
                "--out",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        for name in ("closed.nbest", "closed.ref0", "closed.ref1", "open.nbest"):
            assert (out_dir / name).exists()
        by_id, _ = parse_nbest((out_dir / "closed.nbest").read_text().splitlines())
        assert len(by_id) == 4
        assert all(len(h) == 3 for h in by_id.values())
        header = json.loads((out_dir / "synth.json").read_text())
        assert header["sentences"] == 4
        assert header["seed"] == 7

    def test_same_seed_reproduces_bytes(self, tmp_path, capsys):
        args = ["synth", "--sentences", "3", "--hyps", "4", "--features", "2", "--seed", "3"]
        run(args + ["--out", str(tmp_path / "a")], capsys)
        run(args + ["--out", str(tmp_path / "b")], capsys)
        for name in ("closed.nbest", "open.nbest", "synth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_correlated_pair_flag(self, tmp_path, capsys):
        code, _, _ = run(
            [
                "synth",
                "--sentences",
                "3",
                "--hyps",
                "4",
                "--features",
                "3",
                "--pair",
                "0:2:0.9",
                "--out",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        header = json.loads((tmp_path / "synth.json").read_text())
        assert header["correlated_pairs"] == [[0, 2, 0.9]]

    def test_bad_pair_exits_3(self, tmp_path, capsys):
        code, _, _ = run(
            [
                "synth",
                "--sentences",
                "3",
                "--hyps",
                "4",
                "--features",
                "3",
                "--pair",
                "0:2",
                "--out",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 3

    def test_non_numeric_pair_exits_3(self, tmp_path, capsys):
        args = ["--sentences", "3", "--hyps", "4", "--features", "3", "--pair", "0:1:x"]
        code, stdout, err = run(["synth", *args, "--out", str(tmp_path / "out")], capsys)
        assert (code, stdout, err) == (3, "", "error: pair '0:1:x' has non-numeric parts\n")
        assert not (tmp_path / "out").exists()

    def test_oversized_shape_exits_3_before_allocating(self, tmp_path, capsys):
        args = ["--sentences", "100000000", "--hyps", "100000", "--features", "2"]
        code, _, err = run(["synth", *args, "--out", str(tmp_path / "out")], capsys)
        assert code == 3
        assert_one_error_line(err, "exceed")
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        args = ["--sentences", "2", "--hyps", "2", "--features", "2", "--seed", "-1"]
        code, stdout, err = run(["synth", *args, "--out", str(tmp_path / "out")], capsys)
        assert (code, stdout, err) == (3, "", "error: seed must be non-negative, got -1\n")
        assert not (tmp_path / "out").exists()

    def test_invalid_shape_exits_3(self, tmp_path, capsys):
        code, _, _ = run(
            [
                "synth",
                "--sentences",
                "0",
                "--hyps",
                "4",
                "--features",
                "3",
                "--out",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 3


class TestConsoleScript:
    def test_installed_entry_point_runs(self):
        exe = shutil.which("rotamert")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [
                exe,
                "score",
                str(DATA / "score.hyp"),
                str(DATA / "score.ref0"),
                str(DATA / "score.ref1"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "65.68\n"
