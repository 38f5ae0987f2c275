"""Seeded end-to-end benchmark of the ``rotamert`` command line.

    python3 perfbench/run.py --workload mert-large --seed 1 --seconds 20 --trace 0

``--workload`` is one of :data:`WORKLOADS` or ``all``.  Inputs are
``rotamert.synthetic`` corpora drawn from ``--seed`` before any timing.

With ``--trace 0`` each invocation is a fresh CLI process with nothing
wrapped, run in whole passes over the workload's corpora until
``--seconds`` have passed.  Reported: median wall time from spawn to
exit (``wall_s``), median user+sys CPU of the process tree and its
largest resident set (``cpu_s``, ``peak_rss_mb``, from ``os.wait4``),
the median time a fresh process takes to import ``rotamert.cli`` and
load the inputs (``setup_s``), and the mean printed BLEU (``bleu``).
The three times are calibrated against a reference process run between
passes (see ``CALIBRATED`` and ``calibrate.py``): on a shared machine
the speed of fresh processes drifts by tens of percent within a minute,
which calibration mostly cancels.  The medians as measured are printed
beside them.

With ``--trace 1`` the same invocations call ``rotamert.cli.main``
in-process, alternately plain and with the wrappers of ``layers.py``
installed, and the per-layer numbers of the wrapped calls are reported
as medians over calls.

After every invocation, outside the timed region, the outputs are
hashed; outputs that differ from an earlier run of the same code, seed
and corpus are a failure.  The first time a corpus' outputs are seen in
a run they are also checked by ``check.py``.  A non-zero exit, a
timeout, a failed check or a digest mismatch counts in ``failed``.  The
last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import check
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENTRY = "import sys; from rotamert.cli import main; sys.exit(main())"
# End-to-end times are reported on a calibrated scale: each sample is
# multiplied by the reference process's (calibrate.py) wall or CPU time
# on a calm 2-core 2.0 GHz Xeon over its time around the sample, i.e.
# in seconds on that machine.  Keyed by the reference's JOBS argument.
CALIBRATED = ("wall_s", "setup_s", "cpu_s")
REFERENCE_S = {1: (0.40, 0.49), 2: (0.47, 0.69)}  # (wall, CPU)
PASS_CALLS = 4
PASS_PROBES = 2
IMPORT_PROBES = 5
# Stop starting work this long after start-up, so a run ends within 180 s.
BUDGET_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # mert, rss or score
    sentences: int
    hyps: int
    features: int
    # Corpora drawn per seed; a pass runs each once.  The timings of one
    # corpus depend on its random feature mixing, so several per seed
    # keep the seed from setting the result.
    corpora: int
    flags: tuple[str, ...] = ()

    @property
    def jobs(self) -> int:
        return int(self.flags[self.flags.index("--jobs") + 1]) if "--jobs" in self.flags else 1


# Sizes keep one CLI process near a second on two cores, so a run of
# --seconds holds several passes.  --max-iter 2 makes every descent run
# exactly two sweeps (the epsilon test starts after the second); without
# it the count varies with the corpus (2 to 5) and wall_s would measure
# the seed, not the code.
WORKLOADS = {
    w.name: w
    for w in (
        # BLEU statistics about 60% of the work, line searches about 35%.
        Workload("mert-large", "mert", 40, 50, 8, 4, ("--max-iter", "2")),
        # Line-search bound, statistics computed once; the only process pool.
        Workload(
            "rss-grid", "rss", 30, 25, 4, 4,
            ("--rotate", "0:1", "--max-iter", "2", "--jobs", str(min(2, os.cpu_count() or 1))),
        ),
        # BLEU statistics only; no hypotheses share a reference set.
        Workload("score-1best", "score", 4000, 1, 1, 1),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "bleu": "BLEU",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "corpus.parse_nbest_s": "s",
    "corpus.parse_references_s": "s",
    "corpus.build_corpus_s": "s",
    "corpus.hypotheses": "count",
    "corpus.duplicates_dropped": "count",
    "corpus.input_mb": "MB",
    "bleu.hypothesis_stats_s": "s",
    "bleu.sentence_stats": "count",
    "bleu.us_per_stat": "us",
    "bleu.corpus_bleu_calls": "count",
    "bleu.corpus_bleu_s": "s",
    "envelope.line_searches": "count",
    "envelope.line_search_s": "s",
    "envelope.line_search_ms_p50": "ms",
    "envelope.project_lines_s": "s",
    "envelope.upper_envelope_s": "s",
    "envelope.sweep_intervals_s": "s",
    "envelope.guard_s": "s",
    "envelope.lines": "count",
    "envelope.hull_ratio": "ratio",
    "envelope.breakpoints": "count",
    "envelope.intervals": "count",
    "envelope.coalesced": "count",
    "envelope.guard_fired": "count",
    "descent.kcd_optimize_s": "s",
    "descent.self_s": "s",
    "descent.iterations": "count",
    "descent.useful_step_ratio": "ratio",
    "descent.select_hypotheses_s": "s",
    "rotation.rss_optimize_s": "s",
    "rotation.grid_points": "count",
    "rotation.point_s_p50": "s",
    "rotation.self_s": "s",
    "rotation.busy_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass(frozen=True)
class Case:
    """One generated input set and the CLI arguments that consume it."""

    key: str
    command: str
    first: Path  # N-best file, or the hypothesis file for score
    refs: tuple[Path, ...]
    open_pair: tuple[Path, tuple[Path, ...]] | None
    flags: tuple[str, ...]

    @property
    def inputs(self) -> list[Path]:
        files = [self.first, *self.refs]
        if self.open_pair:
            files += [self.open_pair[0], *self.open_pair[1]]
        return files

    def argv(self, out: Path) -> list[str]:
        if self.command == "score":
            return ["score", str(self.first), *map(str, self.refs)]
        args = [self.command, "--nbest", str(self.first), "--refs", _join(self.refs)]
        if self.open_pair:
            args += ["--open-nbest", str(self.open_pair[0]), "--open-refs", _join(self.open_pair[1])]
        return args + list(self.flags) + ["--out", str(out)]

    def load_argv(self) -> list[str]:
        kind = "score" if self.command == "score" else "corpus"
        args = [kind, str(self.first), _join(self.refs)]
        if self.open_pair:
            args += [str(self.open_pair[0]), _join(self.open_pair[1])]
        return args

    def check(self, out: Path, stdout: bytes, folder: Path) -> list[str]:
        """Problems ``check.py`` finds, run in its own process."""
        folder.mkdir(parents=True, exist_ok=True)
        (folder / "checked-stdout").write_bytes(stdout)
        argv = [str(HERE / "check.py"), self.command, str(self.first), _join(self.refs), str(out), str(folder / "checked-stdout")]
        code, _, _, _ = spawn(argv, folder, 120)
        if code == 0:
            return []
        return (folder / "stdout").read_text().splitlines() or [f"check exited {code}: {(folder / 'stderr').read_text()[-300:]}"]

    def printed_bleu(self, stdout: str) -> float:
        if self.command == "rss":
            best = next(line for line in stdout.splitlines() if line.startswith("best\t"))
            return float(best.split("\t")[2])
        return float(stdout.strip())


def _join(paths) -> str:
    return ",".join(str(p) for p in paths)


def make_cases(workload: Workload, seed: int, work: Path) -> tuple[list[Case], str]:
    """Generate the workload's corpora for ``seed`` under ``work``.

    Returns the cases and the numpy version that generated them.
    """
    seeds = ",".join(str(seed * workload.corpora + k) for k in range(workload.corpora))
    spec = [workload.command, workload.sentences, workload.hyps, workload.features, seeds, work]
    code, _, _, _ = spawn([str(HERE / "inputs.py"), *map(str, spec)], work / "gen", 120)
    if code != 0:
        raise RuntimeError(f"input generation failed: {(work / 'gen' / 'stderr').read_text()[-500:]}")
    cases = []
    for k in range(workload.corpora):
        folder = work / f"in{k}"
        ext = "hyp" if workload.command == "score" else "nbest"
        closed = (folder / f"closed.{ext}", tuple(sorted(folder.glob("closed.ref*"))))
        opened = (folder / f"open.{ext}", tuple(sorted(folder.glob("open.ref*"))))
        cases.append(
            Case(
                key=f"{workload.name}:{seed}:{k}",
                command=workload.command,
                first=closed[0],
                refs=closed[1],
                open_pair=opened if workload.command == "rss" else None,
                flags=workload.flags,
            )
        )
    return cases, (work / "gen" / "stdout").read_text().strip()


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], folder: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run ``python3 argv`` to exit: (exit code, wall s, CPU s, peak RSS MB).

    CPU and peak RSS cover the process and every descendant it waited
    for, such as pool workers.  stdout and stderr go to files in
    ``folder``.
    """
    folder.mkdir(parents=True, exist_ok=True)
    with open(folder / "stdout", "wb") as out, open(folder / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def call_main(main, argv: list[str]) -> tuple[int, bytes, str, tuple[float, float]]:
    """Call ``main(argv)`` in-process: (exit code, stdout, stderr, (start, end))."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        end = time.perf_counter()
    return code, out.getvalue().encode(), err.getvalue(), (start, end)


class Verifier:
    """Checks each invocation's outputs, after its timer has stopped.

    Digests persist in the work directory per fingerprint of the sources
    and the workload, so every run of the same code and workload on the
    same seed must print and write the same bytes.
    """

    def __init__(self, workload: Workload, work: Path) -> None:
        self.work = work
        self.path = WORK / "digests.json"
        sources = b"".join(p.read_bytes() for p in sorted(SRC.rglob("*.py")))
        self.fingerprint = hashlib.sha256(sources + repr(workload).encode()).hexdigest()
        stored = json.loads(self.path.read_text()) if self.path.exists() else {}
        self.stored = stored
        self.known: dict[str, dict[str, str]] = stored.get(self.fingerprint, {})
        self.checked: set[str] = set()
        self.problems: list[str] = []
        self.bleu: dict[str, float] = {}

    def __call__(self, case: Case, code: int, stdout: bytes, stderr: str, out: Path) -> bool:
        problems = self._problems(case, code, stdout, stderr, out)
        self.problems += [f"{case.key}: {p}" for p in problems]
        return not problems

    def _problems(self, case, code, stdout, stderr, out) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        found = check.digests(stdout, out)
        known = self.known.get(case.key)
        if known is not None and known != found:
            changed = sorted(k for k in found.keys() | known.keys() if found.get(k) != known.get(k))
            return [f"outputs differ from an earlier run: {changed}"]
        if case.key not in self.checked:
            self.checked.add(case.key)
            problems = case.check(out, stdout, self.work / "check")
            if problems:
                return problems
            self.known[case.key] = found
            self.bleu[case.key] = case.printed_bleu(stdout.decode())
        return []

    def save(self) -> None:
        self.stored[self.fingerprint] = self.known
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.stored, indent=1, sort_keys=True))
        tmp.replace(self.path)

    def digest_lines(self, cases: list[Case]) -> list[str]:
        lines = []
        for case in cases:
            found = self.known.get(case.key, {})
            lines.append(f"digest {case.key} " + " ".join(f"{k}={v[:16]}" for k, v in sorted(found.items())))
        return lines


@dataclass
class Outcome:
    metrics: dict[str, float]
    samples: dict[str, list[float]]  # as measured, before calibration
    attempted: int
    failed: int
    scale: float = 1.0  # REFERENCE_S over the median reference time


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_end_to_end(workload: Workload, cases: list[Case], seconds: float, deadline: float, verify: Verifier, work: Path) -> Outcome:
    """Timed passes.  A pass runs the reference process, PASS_PROBES
    set-up probes and PASS_CALLS invocations (every case at least once).

    Each probe and invocation is calibrated by the mean of the reference
    runs before and after its pass: wall times by their wall times, CPU
    times by their CPU times.
    """
    references: list[tuple[float, float]] = []  # (wall, cpu); pass k lies between k and k+1
    probes: list[tuple[int, float]] = []  # (pass, wall)
    calls: list[tuple[int, float, float, float]] = []  # (pass, wall, cpu, peak)
    attempted = failed = 0

    def reference() -> None:
        nonlocal attempted, failed
        code, wall, cpu, _ = spawn([str(HERE / "calibrate.py"), str(workload.jobs)], work / "reference", 60)
        attempted += 1
        if code != 0:
            failed += 1
            verify.problems.append(f"reference process exited {code}")
            wall, cpu = references[-1] if references else nominal
        references.append((wall, cpu))

    nominal = REFERENCE_S[min(workload.jobs, 2)]
    order = cases * -(-PASS_CALLS // len(cases))
    start = time.perf_counter()
    while True:
        reference()
        k = len(references) - 1
        for i in range(PASS_PROBES):
            case = order[(k * PASS_PROBES + i) % len(order)]
            code, wall, _, _ = spawn([str(HERE / "load.py"), *case.load_argv()], work / "load", 60)
            attempted += 1
            if code == 0:
                probes.append((k, wall))
            else:
                failed += 1
                verify.problems.append(f"{case.key}: set-up probe exited {code}")
        for case in order:
            folder = work / "call"
            shutil.rmtree(folder, ignore_errors=True)
            out = folder / "out"
            timeout = max(5.0, deadline + 30.0 - time.perf_counter())
            code, wall, cpu, peak = spawn(["-c", ENTRY, *case.argv(out)], folder, timeout)
            attempted += 1
            if verify(case, code, (folder / "stdout").read_bytes(), (folder / "stderr").read_text(), out):
                calls.append((k, wall, cpu, peak))
            else:
                failed += 1
        now = time.perf_counter()
        if now - start >= seconds or now >= deadline:
            break
    reference()

    def scale(k: int, which: int) -> float:
        return 2.0 * nominal[which] / (references[k][which] + references[k + 1][which])

    samples = {
        "wall_s": [c[1] for c in calls],
        "setup_s": [wall for _, wall in probes],
        "cpu_s": [c[2] for c in calls],
        "peak_rss_mb": [c[3] for c in calls],
        "bleu": [verify.bleu[c.key] for c in cases if c.key in verify.bleu],
    }
    calibrated = {
        "wall_s": [c[1] * scale(c[0], 0) for c in calls],
        "setup_s": [wall * scale(k, 0) for k, wall in probes],
        "cpu_s": [c[2] * scale(c[0], 1) for c in calls],
    }
    metrics = {name: _quartiles(calibrated.get(name, values))[1] for name, values in samples.items()}
    metrics["bleu"] = statistics.fmean(samples["bleu"]) if samples["bleu"] else 0.0
    return Outcome(metrics, samples, attempted, failed, nominal[0] / statistics.median(r[0] for r in references))


def run_traced(workload: Workload, cases: list[Case], seconds: float, deadline: float, verify: Verifier, work: Path) -> Outcome:
    probes = []
    attempted = failed = 0
    for _ in range(IMPORT_PROBES):
        code, wall, _, _ = spawn(["-c", "import rotamert.cli"], work / "import", 60)
        attempted += 1
        if code == 0:
            probes.append(wall)
        else:
            failed += 1
            verify.problems.append(f"import probe exited {code}")
    import rotamert.cli as cli

    spill = work / "spill"
    spill.mkdir()
    per_call: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        for case in cases:
            out = work / "plain"
            shutil.rmtree(out, ignore_errors=True)
            code, stdout, stderr, (t0, t1) = call_main(cli.main, case.argv(out))
            plain_ok = verify(case, code, stdout, stderr, out)
            shutil.rmtree(out, ignore_errors=True)
            tracer = layers.Tracer(spill)
            restore = layers.install(tracer)
            try:
                code, stdout, stderr, span = call_main(tracer.wrap("cli.main", cli.main, False), case.argv(out))
            finally:
                layers.uninstall(restore)
            tracer.collect()
            attempted += 1
            if not (verify(case, code, stdout, stderr, out) and plain_ok):
                failed += 1
                continue
            metrics = layers.layer_metrics(tracer, span, workload.jobs)
            metrics["trace.untraced_s"] = t1 - t0
            metrics["cli.import_s"] = statistics.median(probes) if probes else 0.0
            metrics["corpus.input_mb"] = sum(p.stat().st_size for p in case.inputs) / 1e6
            if tracer.count_errors:
                print(f"note {case.key}: return values of {sorted(tracer.count_errors)} not counted")
            per_call.append(metrics)
        now = time.perf_counter()
        if now - start >= seconds or now >= deadline:
            break
    samples = {name: [m[name] for m in per_call] for name in PER_LAYER_UNITS}
    metrics = {name: _quartiles(values)[1] for name, values in samples.items()}
    return Outcome(metrics, samples, attempted, failed)


def context(workload: Workload, seed: int, cases: list[Case], numpy_version: str) -> dict:
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "corpora": len(cases),
        "hypotheses": sum(len(c.first.read_text().splitlines()) for c in cases),
        "input_bytes": sum(p.stat().st_size for c in cases for p in c.inputs),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "rotamert").glob("*.py"))),
        "jobs": workload.jobs,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    deadline = time.perf_counter() + BUDGET_S
    work = WORK / f"run-{os.getpid()}-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    verify = Verifier(workload, work)
    try:
        cases, numpy_version = make_cases(workload, seed, work)
        print(f"context {json.dumps(context(workload, seed, cases, numpy_version), sort_keys=True)}")
        if trace:
            outcome = run_traced(workload, cases, seconds, deadline, verify, work)
        else:
            outcome = run_end_to_end(workload, cases, seconds, deadline, verify, work)
        verify.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for name, unit in units.items():
        values = outcome.samples.get(name, [])
        q1, q2, q3 = _quartiles(values)
        measured = "measured " if name in CALIBRATED and not trace else ""
        print(
            f"{workload.name} {name} {outcome.metrics[name]:.6g} {unit} "
            f"({measured}q1 {q1:.6g}, median {q2:.6g}, q3 {q3:.6g}, n={len(values)})"
        )
    if not trace:
        print(f"{workload.name} calibration scale {outcome.scale:.4f} (reference process {REFERENCE_S[min(workload.jobs, 2)][0] / outcome.scale:.4f} s)")
    print(f"{workload.name} failed_ratio {outcome.failed}/{outcome.attempted} = {outcome.failed / max(outcome.attempted, 1):.3f}")
    # A child's peak RSS starts from the runner's own high-water mark.
    print(f"{workload.name} runner_peak_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}")
    for line in verify.digest_lines(cases):
        print(line)
    for problem in verify.problems:
        print(f"{workload.name} problem {problem}")
    return outcome


def result(outcomes: dict[str, Outcome], trace: bool) -> dict:
    """The JSON result; metric names get a ``workload/`` prefix when several ran."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {}
    for name, outcome in outcomes.items():
        prefix = "" if len(outcomes) == 1 else f"{name}/"
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": outcome.metrics[metric], "unit": unit}
    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rotamert" / "cli.py").is_file():
        print(f"error: no rotamert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(result(outcomes, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
