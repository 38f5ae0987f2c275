"""Golden outputs: ``mert`` and ``rss`` on a committed corpus, byte for byte.

``tests/data/golden`` holds a 12 x 10 x 4 closed/open pair with two
references each (written once by ``rotamert synth``, whose header is
``synth.json``) and, under ``expected/``, every file and the stdout
that each run below printed.  The ``rss`` runs cover a gridded pair
alone, with a fixed rotation, and a fixed rotation alone.  Any change to an output byte fails here.
The same bytes must come out when the object API is refused, and when
the N-best files hold exact duplicate lines and interleaved sentences.
"""

import random
from pathlib import Path

import pytest

from rotamert import corpus
from rotamert.cli import main
from rotamert.envelope import PackedCorpus

GOLDEN = Path(__file__).parent / "data" / "golden"
CLOSED = ["--nbest", str(GOLDEN / "closed.nbest"), "--refs",
          f"{GOLDEN / 'closed.ref0'},{GOLDEN / 'closed.ref1'}"]
OPEN = ["--open-nbest", str(GOLDEN / "open.nbest"), "--open-refs",
        f"{GOLDEN / 'open.ref0'},{GOLDEN / 'open.ref1'}"]

RUNS = {
    "mert-sequential": (["mert", *CLOSED], ("weights.txt", "trace.tsv")),
    "mert-best-direction": (
        ["mert", "--sweep-mode", "best-direction", *CLOSED],
        ("weights.txt", "trace.tsv"),
    ),
    "rss": (["rss", "--rotate", "0:1", *CLOSED, *OPEN], ("report.tsv", "weights.txt")),
    "rss-fixed-and-gridded": (
        ["rss", "--rotate", "0:1,2:3=0.5", *CLOSED, *OPEN],
        ("report.tsv", "weights.txt"),
    ),
    "rss-fixed-only": (
        ["rss", "--rotate", "1:2=0.5", *CLOSED, *OPEN],
        ("report.tsv", "weights.txt"),
    ),
}


def assert_golden(name, argv, out, capsys):
    """Run ``argv`` into ``out``: its stdout and files must be the expected bytes of run ``name``."""
    assert main([*argv, "--out", str(out)]) == 0
    expected = GOLDEN / "expected" / name
    assert capsys.readouterr().out.encode() == (expected / "stdout.txt").read_bytes()
    for file in RUNS[name][1]:
        assert (out / file).read_bytes() == (expected / file).read_bytes(), file


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_equal_the_golden_bytes(name, tmp_path, capsys):
    assert_golden(name, RUNS[name][0], tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_mert_and_rss_read_no_corpus_objects(name, tmp_path, capsys, monkeypatch):
    # Each split goes from its files to id columns and a pack: the object
    # API that parses into maps of Hypothesis objects is never called.
    def refuse(*args, **kwargs):
        raise AssertionError("a command reached the object API")

    for attribute in ("parse_nbest", "parse_references", "build_corpus", "Hypothesis"):
        monkeypatch.setattr(corpus, attribute, refuse)
    monkeypatch.setattr(PackedCorpus, "of", staticmethod(refuse))
    assert_golden(name, RUNS[name][0], tmp_path, capsys)


def duplicated_and_interleaved(text, seed):
    """N-best lines with about 30 % of them repeated, each copy somewhere after
    its original, and the sentences' lines interleaved at random.  The first
    copies of a sentence's lines keep their order, and so their ranks' order."""
    rng = random.Random(seed)
    by_id = {}
    for line in text.splitlines():
        by_id.setdefault(line.split("|||")[0], []).append(line)
    for lines in by_id.values():
        for line in list(lines):
            if rng.random() < 0.3:
                lines.insert(rng.randint(lines.index(line) + 1, len(lines)), line)
    out, queues = [], list(by_id.values())
    while queues:
        queue = rng.choice(queues)
        out.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", ["mert-sequential", "mert-best-direction", "rss"])
def test_duplicate_lines_and_interleaved_ids_change_no_byte(name, tmp_path, capsys):
    # A duplicate has the same line in every direction and ties go to the
    # lowest rank, so a kept copy is never selected in place of its original.
    argv = RUNS[name][0]
    for k, split in enumerate(("closed", "open")):
        original = GOLDEN / f"{split}.nbest"
        text = duplicated_and_interleaved(original.read_text(), seed=k)
        assert len(text.splitlines()) > 1.2 * len(original.read_text().splitlines())
        (tmp_path / f"{split}.nbest").write_text(text)
        argv = [str(tmp_path / f"{split}.nbest") if arg == str(original) else arg for arg in argv]
    assert_golden(name, argv, tmp_path / "run", capsys)
