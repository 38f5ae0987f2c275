"""Set-up probe: import ``rotamert.cli`` and load a command's inputs, then exit.

    python3 load.py corpus NBEST REF,REF,... [NBEST REF,REF,...]
    python3 load.py score HYP REF,REF,...

``corpus`` parses and builds each N-best/reference pair the way ``mert``
and ``rss`` do; ``score`` reads the hypothesis file and parses the
references the way ``score`` does.  No BLEU statistics are computed.
The runner times this process from spawn to exit.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    import rotamert.cli  # noqa: F401  (the import is part of set-up)
    from rotamert.corpus import build_corpus, parse_nbest, parse_references

    kind, *pairs = argv
    loaded = 0
    for first, refs in zip(pairs[::2], pairs[1::2], strict=True):
        ref_paths = refs.split(",")
        references = parse_references(
            [Path(p).read_text().splitlines() for p in ref_paths], sources=ref_paths
        )
        lines = Path(first).read_text().splitlines()
        if kind == "score":
            loaded += len(lines)
        else:
            by_id, names = parse_nbest(lines, source=first)
            corpus = build_corpus(by_id, references, names)
            loaded += sum(len(entry.hypotheses) for entry in corpus.entries)
    print(loaded)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
