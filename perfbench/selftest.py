"""Fast self-test of the benchmark, at tiny input sizes.

    python3 perfbench/selftest.py

Checks that both modes of every workload emit exactly the metrics
``BENCHMARK.json`` names, each with its unit, and report correct
outputs; and that the output check rejects a corrupted ``weights.txt``
(``mert`` and ``rss``) and a wrong printed score.  Exits 0 when all
hold, 1 otherwise, listing what failed.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import run


def tiny(workload: run.Workload) -> run.Workload:
    """The workload at a few sentences, under its own name (digests are per name)."""
    return dataclasses.replace(
        workload,
        name=f"{workload.name}-tiny",
        sentences=6,
        hyps=min(workload.hyps, 5),
        corpora=min(workload.corpora, 2),
    )


def emitted_metrics(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS.values():
            with redirect_stdout(io.StringIO()) as printed:
                outcome = run.run_workload(tiny(workload), 1, 0.0, trace)
            emitted = run.result({workload.name: outcome}, trace)
            units = {name: m["unit"] for name, m in emitted["metrics"].items()}
            if units != expected:
                failures.append(f"{workload.name} trace={int(trace)}: emitted {units}, expected {expected}")
            if not emitted["correct"]:
                failures.append(f"{workload.name} trace={int(trace)}: not correct\n{printed.getvalue()}")


def corrupted_outputs(failures: list[str], work: Path) -> None:
    def outputs(name: str) -> tuple[run.Case, Path, bytes]:
        cases, _ = run.make_cases(tiny(run.WORKLOADS[name]), 1, work / name)
        case, out = cases[0], work / name / "out"
        code, _, _, _ = run.spawn(["-c", run.ENTRY, *case.argv(out)], work / name / "call", 60)
        if code != 0:
            raise RuntimeError(f"{name} exited {code}")
        stdout = (work / name / "call" / "stdout").read_bytes()
        if case.check(out, stdout, work / name / "check"):
            failures.append(f"{name}: untouched outputs were rejected")
        return case, out, stdout

    def expect_rejected(what: str, case: run.Case, out: Path, stdout: bytes) -> None:
        if not case.check(out, stdout, work / "check"):
            failures.append(f"not rejected: {what}")

    for name in ("mert-large", "rss-grid"):
        case, out, stdout = outputs(name)
        if name == "mert-large":
            wrong = f"{float(stdout) + 1.0:.2f}\n".encode()
            expect_rejected("mert printed one point too high", case, out, wrong)
        weights_file = out / "weights.txt"
        weights = weights_file.read_text().split()
        weights_file.write_text("".join(f"{w}\n" for w in weights[:-1]))
        expect_rejected(f"{name} weights.txt missing a weight", case, out, stdout)
        weights_file.write_text("".join(f"{w}\n" for w in ["nan", *weights[1:]]))
        expect_rejected(f"{name} weights.txt with a NaN weight", case, out, stdout)
        if name == "rss-grid":
            # Doubling every weight keeps the selection, so only the
            # comparison with the selected report row can catch it.
            weights_file.write_text("".join(f"{float(w) * 2.0!r}\n" for w in weights))
            expect_rejected("rss weights.txt that is not the selected row", case, out, stdout)

    case, out, stdout = outputs("score-1best")
    wrong = f"{float(stdout) + 1.0:.2f}\n".encode()
    expect_rejected("score printed one point too high", case, out, wrong)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failures: list[str] = []
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        emitted_metrics(failures)
        corrupted_outputs(failures, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
