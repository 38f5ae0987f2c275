"""Golden outputs: ``mert`` and ``rss`` on a committed corpus, byte for byte.

``tests/data/golden`` holds a 12 x 10 x 4 closed/open pair with two
references each (written once by ``rotamert synth``, whose header is
``synth.json``) and, under ``expected/``, every file and the stdout
that each run below printed.  The ``rss`` runs cover a gridded pair
alone, with a fixed rotation, and a fixed rotation alone.  Any change to an output byte fails here.
"""

from pathlib import Path

import pytest

from rotamert.cli import main

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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_equal_the_golden_bytes(name, tmp_path, capsys):
    argv, files = RUNS[name]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    expected = GOLDEN / "expected" / name
    assert capsys.readouterr().out.encode() == (expected / "stdout.txt").read_bytes()
    for file in files:
        assert (tmp_path / file).read_bytes() == (expected / file).read_bytes(), file
