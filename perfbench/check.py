"""Output checks for the benchmark, independent of the ``rotamert`` package.

    python3 check.py mert  NBEST REF,REF,... OUT STDOUT_FILE
    python3 check.py rss   NBEST REF,REF,... OUT STDOUT_FILE
    python3 check.py score HYP   REF,REF,... OUT STDOUT_FILE

Every check reads only the files a command read and wrote, and
recomputes what the command printed with its own code: N-best and
reference parsing, clipped n-gram statistics, order-4 unsmoothed corpus
BLEU, and the 1-best selection under a weight vector (fixed-order dot
product, ties to the earliest hypothesis in file order).  Each check
returns a list of problems; an empty list means the outputs are correct.
Run as a program, it prints the problems and exits 1 if there are any.
"""

from __future__ import annotations

import hashlib
import math
import sys
from collections import Counter
from pathlib import Path

ORDER = 4
# Labels of the default 21-point alpha grid, as report.tsv prints them.
ALPHAS = [f"{(k - 10) / 10:+g}" for k in range(21)]
# Printed BLEU carries two decimals; allow half a unit of the last place.
PRINT_TOL = 0.005 + 1e-9
# A trace error is a repr'd float; allow a few ulps for a reordered sum.
ERROR_TOL = 1e-12


def read_nbest(path: Path) -> list[list[tuple[tuple[str, ...], tuple[float, ...]]]]:
    """Hypotheses per sentence, in file order, as (tokens, features)."""
    sentences: dict[int, list] = {}
    for line in path.read_text().splitlines():
        sid, tokens, feats, _ = line.split("|||")
        values = tuple(float(t) for t in feats.split() if not t.endswith(":"))
        sentences.setdefault(int(sid), []).append((tuple(tokens.split()), values))
    return [sentences[s] for s in range(len(sentences))]


def read_refs(paths: list[Path]) -> list[list[tuple[str, ...]]]:
    streams = [p.read_text().splitlines() for p in paths]
    return [
        [tuple(stream[i].split()) for stream in streams if stream[i].split()]
        for i in range(len(streams[0]))
    ]


def sentence_stats(hyp: tuple[str, ...], refs: list[tuple[str, ...]]) -> list[int]:
    """``[match_1..4, total_1..4, hyp_len, ref_len]`` for one hypothesis."""
    matches, totals = [], []
    for n in range(1, ORDER + 1):
        grams = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
        ceiling: Counter = Counter()
        for ref in refs:
            ceiling |= Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        matches.append(sum(min(c, ceiling[g]) for g, c in grams.items()))
        totals.append(max(0, len(hyp) - n + 1))
    ref_len = min((len(r) for r in refs), key=lambda rl: (abs(rl - len(hyp)), rl))
    return matches + totals + [len(hyp), ref_len]


def bleu(hyps: list[tuple[str, ...]], refs: list[list[tuple[str, ...]]]) -> float:
    """Corpus BLEU on [0, 1] of one hypothesis per sentence."""
    agg = [0] * (2 * ORDER + 2)
    for hyp, sentence_refs in zip(hyps, refs, strict=True):
        agg = [a + b for a, b in zip(agg, sentence_stats(hyp, sentence_refs))]
    match, total, hyp_len, ref_len = agg[:ORDER], agg[ORDER : 2 * ORDER], agg[-2], agg[-1]
    if hyp_len == 0 or 0 in match or 0 in total:
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(match, total)) / ORDER
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision)


def select(nbest, weights: list[float]) -> list[tuple[str, ...]]:
    """The argmax hypothesis of each sentence; score ties keep the earliest."""
    chosen = []
    for hyps in nbest:
        best_tokens, best_score = None, None
        for tokens, features in hyps:
            score = 0.0
            for w, f in zip(weights, features, strict=True):
                score += w * f
            if best_score is None or score > best_score:
                best_tokens, best_score = tokens, score
        chosen.append(best_tokens)
    return chosen


def parse_weights(text: str, dim: int) -> list[float] | str:
    """The floats of a ``weights.txt``, or a problem description."""
    try:
        values = [float(v) for v in text.split()]
    except ValueError as exc:
        return f"weights are not numbers: {exc}"
    if len(values) != dim:
        return f"{len(values)} weights for {dim} features"
    if not all(math.isfinite(v) for v in values):
        return "weights are not all finite"
    return values


def _near(printed: str, value: float) -> bool:
    try:
        return abs(float(printed) - value * 100.0) <= PRINT_TOL
    except ValueError:
        return False


def check_mert(nbest_path: Path, ref_paths: list[Path], out: Path, stdout: str) -> list[str]:
    nbest, refs = read_nbest(nbest_path), read_refs(ref_paths)
    weights = parse_weights((out / "weights.txt").read_text(), len(nbest[0][0][1]))
    if isinstance(weights, str):
        return [weights]
    score = bleu(select(nbest, weights), refs)
    problems = []
    if not _near(stdout.strip(), score):
        problems.append(f"printed BLEU {stdout.strip()!r}, recomputed {score * 100.0:.4f}")
    last = (out / "trace.tsv").read_text().splitlines()[-1].split("\t")
    try:
        traced = float(last[3])
    except (IndexError, ValueError):
        return problems + [f"trace.tsv has no error column in {last!r}"]
    if abs(traced - (1.0 - score)) > ERROR_TOL:
        problems.append(f"last trace error {traced!r}, recomputed {1.0 - score!r}")
    return problems


def check_rss(nbest_path: Path, ref_paths: list[Path], out: Path, stdout: str) -> list[str]:
    """Rows match the grid, each row's weights reproduce its closed BLEU,
    the selection is the closed-BLEU argmax (ties: smaller |alpha|, then
    the negative one), and ``weights.txt`` is the selected row."""
    nbest, refs = read_nbest(nbest_path), read_refs(ref_paths)
    dim = len(nbest[0][0][1])
    body, _, summary = (out / "report.tsv").read_text().partition("\n\n")
    rows = [line.split("\t") for line in body.splitlines()[1:]]
    if [r[0] for r in rows] != ALPHAS:
        return [f"report rows {[r[0] for r in rows]} differ from grid {ALPHAS}"]
    problems = []
    scored = []
    for row in rows:
        weights = parse_weights(" ".join(row[3:]), dim)
        if isinstance(weights, str):
            return [f"row {row[0]}: {weights}"]
        score = bleu(select(nbest, weights), refs)
        if not _near(row[1], score):
            problems.append(f"row {row[0]} closed BLEU {row[1]}, recomputed {score * 100.0:.4f}")
        scored.append((-score, abs(float(row[0])), float(row[0]), row))
    best = min(scored)[3]
    lines = stdout.splitlines()
    if not lines or lines[0] != f"selected alpha: {best[0]}":
        problems.append(f"stdout {lines[:1]} does not select the argmax alpha {best[0]}")
    best_rows = [line.split("\t") for line in lines if line.startswith("best\t")]
    if len(best_rows) != 1 or summary.splitlines()[-1:] != ["\t".join(best_rows[0])]:
        return problems + ["stdout and report.tsv disagree on the best row"]
    weights = parse_weights((out / "weights.txt").read_text(), dim)
    if isinstance(weights, str):
        return problems + [weights]
    if weights != [float(v) for v in best[3:]]:
        problems.append("weights.txt is not the selected row's weights")
    if not _near(best_rows[0][2], bleu(select(nbest, weights), refs)):
        problems.append(f"selected weights do not reproduce closed BLEU {best_rows[0][2]}")
    return problems


def check_score(hyp_path: Path, ref_paths: list[Path], stdout: str) -> list[str]:
    hyps = [tuple(line.split()) for line in hyp_path.read_text().splitlines()]
    score = bleu(hyps, read_refs(ref_paths))
    if _near(stdout.strip(), score):
        return []
    return [f"printed BLEU {stdout.strip()!r}, recomputed {score * 100.0:.4f}"]


def digests(stdout: bytes, out: Path) -> dict[str, str]:
    """sha256 of stdout and of every file the command wrote."""
    found = {"stdout": hashlib.sha256(stdout).hexdigest()}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                found[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def main(argv: list[str]) -> int:
    command, first, refs, out, stdout_file = argv
    ref_paths = [Path(p) for p in refs.split(",")]
    stdout = Path(stdout_file).read_text()
    if command == "mert":
        problems = check_mert(Path(first), ref_paths, Path(out), stdout)
    elif command == "rss":
        problems = check_rss(Path(first), ref_paths, Path(out), stdout)
    else:
        problems = check_score(Path(first), ref_paths, stdout)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
