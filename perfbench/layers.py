"""Timing and counting wrappers for the traced benchmark run.

:func:`install` replaces public functions of ``rotamert`` modules, at the
boundaries between its layers (``cli``, ``corpus``, ``bleu``,
``envelope``, ``descent``, ``rotation``), by wrappers that feed one
:class:`Tracer`; :func:`uninstall` puts the originals back.  Nothing in
the package itself changes.  A wrapper records the call count, the
total and the self time (total minus the time of wrapped calls made
inside it) of its function, and for a few functions the start and end
of every call.  Counts are read from the values the functions return.

Process-pool workers forked while the wrappers are installed inherit
them.  A worker starts with empty records and, whenever its outermost
wrapped call returns, appends what it recorded to a file in the spill
directory; :meth:`Tracer.collect` merges those files afterwards.

An attribute that a later version of the package no longer has is
skipped, so its function reports zero calls, and a return value whose
shape a counter does not know is reported instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path

# (record name, modules whose attribute is replaced, attribute, keep spans).
# A function is wrapped in each module that calls it through a module
# global, so every call path reaches the wrapper.
WRAPPED = (
    ("corpus.parse_nbest", ("cli",), "parse_nbest", False),
    ("corpus.parse_references", ("cli",), "parse_references", False),
    ("corpus.build_corpus", ("cli",), "build_corpus", False),
    ("bleu.hypothesis_stats", ("cli", "descent", "rotation"), "hypothesis_stats", False),
    ("bleu.sentence_bleu_stats", ("cli",), "sentence_bleu_stats", False),
    ("bleu.selection_error", ("cli", "descent", "rotation"), "selection_error", False),
    ("bleu.corpus_bleu", ("cli", "bleu", "envelope"), "corpus_bleu", False),
    ("envelope.line_search", ("descent",), "line_search", True),
    ("envelope.project_lines", ("envelope",), "project_lines", False),
    ("envelope.upper_envelope", ("envelope",), "upper_envelope", False),
    ("envelope.sweep_intervals", ("envelope",), "sweep_intervals", False),
    ("descent.kcd_optimize", ("cli", "rotation"), "kcd_optimize", True),
    ("descent.select_hypotheses", ("cli", "descent", "rotation"), "select_hypotheses", False),
    ("rotation.rss_optimize", ("cli",), "rss_optimize", True),
)


def _count(tracer: "Tracer", name: str, result) -> None:
    counts = tracer.counts
    if name == "corpus.parse_nbest":
        counts["corpus.parsed"] += sum(len(hyps) for hyps in result[0].values())
    elif name == "corpus.build_corpus":
        counts["corpus.hypotheses"] += sum(len(e.hypotheses) for e in result.entries)
    elif name == "bleu.hypothesis_stats":
        counts["bleu.sentence_stats"] += sum(len(row) for row in result)
    elif name == "bleu.sentence_bleu_stats":
        counts["bleu.sentence_stats"] += 1
    elif name == "envelope.project_lines":
        counts["envelope.lines"] += len(result)
    elif name == "envelope.upper_envelope":
        counts["envelope.hull_lines"] += len(result.segments)
        counts["envelope.breakpoints"] += len(result.breakpoints)
    elif name == "envelope.sweep_intervals":
        counts["envelope.intervals"] += len(result.interval_error)
        counts["envelope.boundaries"] += len(result.boundaries)
        tracer.sweep_minimum = min(e.error for e in result.interval_error)
    elif name == "envelope.line_search":
        # The gamma = 0 guard is the only way to return an error below
        # the best interval of the sweep the search just made.
        if tracer.sweep_minimum is not None and result.error_at_star.error < tracer.sweep_minimum:
            counts["envelope.guard_fired"] += 1
        tracer.sweep_minimum = None
    elif name == "descent.kcd_optimize":
        trace = result[1]
        counts["descent.iterations"] += trace.iterations
        counts["descent.useful_steps"] += sum(1 for s in trace.steps if s.gamma != 0.0)
    elif name == "rotation.rss_optimize":
        counts["rotation.grid_points"] += len(result.records)


class Tracer:
    """Per-process records of wrapped calls, plus what workers spilled."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        self.main_pid = os.getpid()
        self._owner = self.main_pid
        self._clear()
        self.worker_totals: dict[str, list] = {}
        self.worker_spans: list[tuple[str, float, float]] = []
        self.count_errors: set[str] = set()

    def _clear(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.spans: list[tuple[str, float, float]] = []
        self.counts: Counter = Counter()
        self.sweep_minimum: float | None = None
        self._stack: list[float] = []  # time of wrapped calls inside each open call

    def wrap(self, name: str, fn, keep_spans: bool):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if os.getpid() != self._owner:  # first call in a forked worker
                self._owner = os.getpid()
                self._clear()
            stack = self._stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                inner = stack.pop()
                elapsed = end - start
                record = self.totals.setdefault(name, [0, 0.0, 0.0])
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner
                if keep_spans:
                    self.spans.append((name, start, end))
            try:
                _count(self, name, result)
            except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                self.count_errors.add(name)
            if stack:
                # Counting is tracing overhead: keep it out of the caller's self time.
                stack[-1] += clock() - start
            elif os.getpid() != self.main_pid:
                self._spill()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _spill(self) -> None:
        record = {
            "totals": self.totals,
            "spans": self.spans,
            "counts": dict(self.counts),
            "count_errors": sorted(self.count_errors),
        }
        with open(self.spill_dir / f"worker-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self._clear()

    def collect(self) -> None:
        """Merge and delete what forked workers spilled."""
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                for name, (calls, total, own) in record["totals"].items():
                    merged = self.worker_totals.setdefault(name, [0, 0.0, 0.0])
                    merged[0] += calls
                    merged[1] += total
                    merged[2] += own
                self.worker_spans.extend(tuple(s) for s in record["spans"])
                self.counts.update(record["counts"])
                self.count_errors.update(record["count_errors"])
            path.unlink()


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every function in :data:`WRAPPED`; returns what to restore."""
    restore = []
    for name, modules, attribute, keep_spans in WRAPPED:
        for module_name in modules:
            module = importlib.import_module(f"rotamert.{module_name}")
            original = getattr(module, attribute, None)
            if original is None:
                continue
            setattr(module, attribute, tracer.wrap(name, original, keep_spans))
            restore.append((module, attribute, original))
    return restore


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for module, attribute, original in reversed(restore):
        setattr(module, attribute, original)


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def layer_metrics(tracer: Tracer, main_span: tuple[float, float], jobs: int) -> dict[str, float]:
    """Per-layer numbers of one traced ``main`` call.

    ``main_span`` is when the runner called ``main`` and when it
    returned.  ``trace.unattributed_s`` is the part of that wall time
    not in the self time of any wrapped call made in this process,
    ``cli.main`` included: wrapper overhead and the call itself.
    """
    totals: dict[str, list] = {}
    for source in (tracer.totals, tracer.worker_totals):
        for name, (calls, total, own) in source.items():
            merged = totals.setdefault(name, [0, 0.0, 0.0])
            merged[0] += calls
            merged[1] += total
            merged[2] += own

    def calls(name: str) -> int:
        return totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    spans = tracer.spans + tracer.worker_spans
    searches = [end - start for name, start, end in spans if name == "envelope.line_search"]
    descents = [(start, end) for name, start, end in spans if name == "descent.kcd_optimize"]
    counts = tracer.counts
    wall = main_span[1] - main_span[0]
    # score computes statistics one sentence at a time, mert and rss in bulk.
    stats_s = seconds("bleu.hypothesis_stats") + seconds("bleu.sentence_bleu_stats")
    metrics = {
        "cli.self_s": own("cli.main"),
        "corpus.parse_nbest_s": seconds("corpus.parse_nbest"),
        "corpus.parse_references_s": seconds("corpus.parse_references"),
        "corpus.build_corpus_s": seconds("corpus.build_corpus"),
        "corpus.hypotheses": counts["corpus.hypotheses"],
        "corpus.duplicates_dropped": counts["corpus.parsed"] - counts["corpus.hypotheses"],
        "bleu.hypothesis_stats_s": stats_s,
        "bleu.sentence_stats": counts["bleu.sentence_stats"],
        "bleu.us_per_stat": ratio(stats_s, counts["bleu.sentence_stats"]) * 1e6,
        "bleu.corpus_bleu_calls": calls("bleu.corpus_bleu"),
        "bleu.corpus_bleu_s": seconds("bleu.corpus_bleu"),
        "envelope.line_searches": calls("envelope.line_search"),
        "envelope.line_search_s": seconds("envelope.line_search"),
        "envelope.line_search_ms_p50": statistics.median(searches) * 1e3 if searches else 0.0,
        "envelope.project_lines_s": seconds("envelope.project_lines"),
        "envelope.upper_envelope_s": seconds("envelope.upper_envelope"),
        "envelope.sweep_intervals_s": seconds("envelope.sweep_intervals"),
        "envelope.guard_s": own("envelope.line_search"),
        "envelope.lines": counts["envelope.lines"],
        "envelope.hull_ratio": ratio(counts["envelope.hull_lines"], counts["envelope.lines"]),
        "envelope.breakpoints": counts["envelope.breakpoints"],
        "envelope.intervals": counts["envelope.intervals"],
        "envelope.coalesced": counts["envelope.breakpoints"] - counts["envelope.boundaries"],
        "envelope.guard_fired": counts["envelope.guard_fired"],
        "descent.kcd_optimize_s": seconds("descent.kcd_optimize"),
        "descent.self_s": own("descent.kcd_optimize"),
        "descent.iterations": counts["descent.iterations"],
        "descent.useful_step_ratio": ratio(counts["descent.useful_steps"], calls("envelope.line_search")),
        "descent.select_hypotheses_s": seconds("descent.select_hypotheses"),
        "rotation.grid_points": counts["rotation.grid_points"],
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(record[2] for record in tracer.totals.values()),
    }
    rss = [(start, end) for name, start, end in tracer.spans if name == "rotation.rss_optimize"]
    inside = [(max(s, a), min(e, b)) for a, b in rss for s, e in descents if s < b and e > a]
    rss_wall = sum(end - start for start, end in rss)
    metrics["rotation.rss_optimize_s"] = rss_wall
    metrics["rotation.point_s_p50"] = statistics.median(e - s for s, e in inside) if inside else 0.0
    metrics["rotation.self_s"] = rss_wall - _union(inside)
    metrics["rotation.busy_ratio"] = ratio(sum(e - s for s, e in inside), jobs * rss_wall)
    return metrics
