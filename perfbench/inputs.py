"""Write a workload's synthetic inputs, one folder per seed.

    python3 inputs.py COMMAND SENTENCES HYPS FEATURES SEED[,SEED...] DIR

Each seed gives a ``synth --pair 0:1:0.9 --ref-count 4`` corpus pair
(no pair with a single feature) in ``DIR/in<k>``: ``closed.nbest`` and
``open.nbest``, or for ``score`` the first hypothesis of every closed
sentence as ``closed.hyp``, plus ``closed.ref<j>`` and ``open.ref<j>``.
Prints the numpy version.  It runs in its own process so that the
runner, whose peak memory is a floor under every child's, stays small.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    import numpy
    from rotamert.corpus import format_nbest, format_references
    from rotamert.synthetic import SynthSpec, generate

    command, sentences, hyps, features, seeds, out = argv
    for k, seed in enumerate(seeds.split(",")):
        spec = SynthSpec(
            sentences=int(sentences),
            hypotheses=int(hyps),
            features=int(features),
            correlated_pairs=((0, 1, 0.9),) if int(features) > 1 else (),
            ref_count=4,
            seed=int(seed),
        )
        folder = Path(out) / f"in{k}"
        folder.mkdir(parents=True)
        for split, corpus in zip(("closed", "open"), generate(spec)):
            for j, body in enumerate(format_references(corpus)):
                (folder / f"{split}.ref{j}").write_text(body)
            if command == "score":
                hyp_lines = (" ".join(e.hypotheses[0].tokens) + "\n" for e in corpus.entries)
                (folder / f"{split}.hyp").write_text("".join(hyp_lines))
            else:
                (folder / f"{split}.nbest").write_text(format_nbest(corpus))
    print(numpy.__version__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
