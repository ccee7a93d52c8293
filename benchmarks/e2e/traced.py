"""Run ``repro`` with every layer's public entry point wrapped in a span.

Usage: ``python benchmarks/e2e/traced.py {verify|serve} ARGS...``

The wrappers are installed from here, at the names callers look the
functions up by, and then ``repro.cli.main`` runs with the same ARGS the
untraced run uses, so the workload is identical. Spans are kept in memory
as (trace_id, span_id, parent_id, name, start_ns, end_ns, thread) and
written as JSONL to ``$E2E_TRACE_DIR/<pid>.jsonl`` when the program
exits; a served program exits on SIGTERM after draining.

The rest of this module reads those files back: self time, the child-sum
check and the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Share by which a root span's children may overlap each other before
#: the trace counts as malformed (their time would be counted twice).
CHILD_SUM_TOLERANCE = 0.02


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Counter = Counter()
        self.keys: set = set()  # distinct (codes, qtype) served
        self.recording = True
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            if stack:
                trace_id, parent_id = stack[-1]
            else:
                trace_id, parent_id = span_id, 0
            stack.append((trace_id, span_id))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((trace_id, span_id, parent_id, name,
                                     start, end, threading.get_ident()))
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")
            handle.write(json.dumps({
                "counters": dict(self.counters),
                "keys": sorted(list(key) for key in self.keys),
            }, separators=(",", ":")))
            handle.write("\n")


# -- what the counters record -------------------------------------------------


def _count_paths(tracer, args, summary) -> None:
    tracer.counters["summary.paths"] += summary.paths_explored


def _count_unsat(tracer, args, result) -> None:
    if result.name == "UNSAT":
        tracer.counters["solver.unsat"] += 1


def _count_guards(tracer, args, result) -> None:
    analysis = result.analysis or {}
    tracer.counters["analysis.pruned_guard_hits"] += analysis.get("pruned_guard_hits", 0)
    tracer.counters["analysis.panic_guard_checks"] += analysis.get("panic_guard_checks", 0)


def _count_units(tracer, args, outcome) -> None:
    tracer.counters["incremental.units_total"] += outcome.reuse.partitions_total
    tracer.counters["incremental.units_recomputed"] += outcome.reuse.partitions_recomputed


def _note_qtype(tracer, args, result) -> None:
    tracer._local.qtype = int(result[1].qtype)


def _count_key(tracer, args, result) -> None:
    tracer.keys.add(tuple(result[0]) + (getattr(tracer._local, "qtype", 0),))


def _count_rcode(tracer, args, response) -> None:
    tracer.counters["serve.decoded"] += 1
    if response is not None and response.rcode.name == "NXDOMAIN":
        tracer.counters["serve.nxdomain"] += 1


#: (module, attribute path, span name, result hook). A function is wrapped
#: where its callers look it up: ``from x import f`` copies the name, so
#: each importing module that calls it is listed.
WRAPS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.pipeline", "compile_module", "frontend.compile", None),
    ("repro.analysis", "prune_module", "analysis.prune", None),
    ("repro.analysis.interproc", "compute_summaries", "analysis.summaries", None),
    ("repro.core.pipeline", "VerificationSession.verify", "core.verify", _count_guards),
    ("repro.core.pipeline", "summarize", "summary", _count_paths),
    ("repro.core.pipeline", "check_refinement_nested", "refine", None),
    ("repro.symex.executor", "Executor.run", "symex.run", None),
    ("repro.solver.solver", "Solver.check", "solver.check", _count_unsat),
    ("repro.solver.sat", "check_formulas", "sat", None),
    ("repro.incremental.engine", "IncrementalVerifier.verify_current",
     "incremental.verify_current", _count_units),
    ("repro.incremental.planner.by_label", "ByLabelPlanner.plan", "planner.plan", None),
    ("repro.incremental.planner.ec", "ECPlanner.plan", "planner.plan", None),
    ("repro.serve.gate", "PublishGate.bootstrap", "serve.gate", None),
    ("repro.serve.gate", "PublishGate.submit", "serve.gate", None),
    ("repro.serve.gate", "PublishGate.submit_coalescing", "serve.gate", None),
    ("repro.serve.server", "build_snapshot", "serve.snapshot.build", None),
    ("repro.serve.gate", "build_snapshot", "serve.snapshot.build", None),
    ("repro.dns.zonefile", "parse_zone_text", "dns.zonefile.parse", None),
    ("repro.serve.reload", "parse_zone_text", "dns.zonefile.parse", None),
    ("repro.serve.server", "ZoneServer.handle_packet", "serve.handle", None),
    ("repro.serve.server", "parse_query", "wire.parse", _note_qtype),
    ("repro.serve.snapshot", "encode_query_name", "serve.encode", _count_key),
    ("repro.engine.control", "run_engine_concrete", "engine.run", None),
    ("repro.engine.encoding", "ZoneEncoder.decode_response", "engine.decode",
     _count_rcode),
    ("repro.serve.server", "build_response", "wire.build", None),
)


def install(tracer: Tracer) -> None:
    """Replace every function in :data:`WRAPS` with its traced wrapper."""
    for module_name, attr_path, span, hook in WRAPS:
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), hook))


def main(argv: Sequence[str]) -> int:
    out_dir = Path(os.environ["E2E_TRACE_DIR"])
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(list(argv))
    finally:
        tracer.recording = False
        tracer.dump(out_dir / f"{os.getpid()}.jsonl")


# -- reading traces back ------------------------------------------------------


def covered_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTable:
    """The spans of one process with self times and per-name rollups."""

    def __init__(self, spans: Sequence[Sequence]) -> None:
        self.spans = spans
        self.by_id = {span[1]: span for span in spans}
        children: Dict[int, List[Sequence]] = defaultdict(list)
        for span in spans:
            if span[2]:
                children[span[2]].append(span)
        self.children = children

    def self_ns(self, span: Sequence) -> int:
        kids = self.children.get(span[1], ())
        return (span[5] - span[4]) - covered_ns((k[4], k[5]) for k in kids)

    def root_name(self, span: Sequence) -> str:
        root = self.by_id.get(span[0])
        return root[3] if root is not None else span[3]

    def has_ancestor_named(self, span: Sequence, name: str) -> bool:
        parent = self.by_id.get(span[2])
        while parent is not None:
            if parent[3] == name:
                return True
            parent = self.by_id.get(parent[2])
        return False

    def unbalanced_roots(self) -> List[Sequence]:
        """Root spans whose children's summed durations exceed the time
        they cover by more than :data:`CHILD_SUM_TOLERANCE` of the root:
        children plus self time would then not add up to the parent."""
        bad = []
        for span in self.spans:
            if span[2]:
                continue
            kids = self.children.get(span[1], ())
            if not kids:
                continue
            duration = span[5] - span[4]
            summed = sum(k[5] - k[4] for k in kids)
            covered = covered_ns((k[4], k[5]) for k in kids)
            outside = any(k[4] < span[4] or k[5] > span[5] for k in kids)
            if outside or summed - covered > CHILD_SUM_TOLERANCE * duration:
                bad.append(span)
        return bad


def read_trace(path: Path) -> Tuple[List[list], Dict]:
    spans: List[list] = []
    tail: Dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            if isinstance(item, dict):
                tail = item
            else:
                spans.append(item)
    return spans, tail


class Rollup:
    """Per-name totals summed over every traced process of one run."""

    def __init__(self) -> None:
        self.inclusive_ns: Counter = Counter()  # outermost same-name spans
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.keys: set = set()
        self.spans = 0
        self.roots = 0
        self.unbalanced = 0

    def add_file(self, path: Path) -> None:
        spans, tail = read_trace(path)
        self.counters.update(tail.get("counters", {}))
        self.keys.update(tuple(key) for key in tail.get("keys", ()))
        table = SpanTable(spans)
        self.spans += len(spans)
        self.roots += sum(1 for span in spans if not span[2])
        self.unbalanced += len(table.unbalanced_roots())
        for span in spans:
            name = span[3]
            # Serve-path layers are attributed by what they ran under: the
            # engine also runs to re-execute counterexamples inside verify.
            if name in ("engine.run", "engine.decode"):
                if table.root_name(span) != "serve.handle":
                    name = "core.validate" if name == "engine.run" else "core.decode"
            self.calls[name] += 1
            self.self_ns[name] += table.self_ns(span)
            if not table.has_ancestor_named(span, span[3]):
                self.inclusive_ns[name] += span[5] - span[4]

    def seconds(self, *names: str) -> float:
        return sum(self.inclusive_ns[n] for n in names) / 1e9

    def mean_us(self, name: str, self_time: bool = False) -> float:
        calls = self.calls[name]
        total = (self.self_ns if self_time else self.inclusive_ns)[name]
        return total / calls / 1e3 if calls else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rollup: Rollup) -> Dict[str, float]:
    """The per-layer metrics (see README.md for what each should move)."""
    c = rollup.counters
    checks = rollup.calls["solver.check"]
    sat_calls = rollup.calls["sat"]
    guards = c["analysis.pruned_guard_hits"] + c["analysis.panic_guard_checks"]
    units = c["incremental.units_total"]
    handled = rollup.calls["serve.handle"]
    return {
        "frontend.compile_s": rollup.seconds("frontend.compile"),
        "frontend.modules": rollup.calls["frontend.compile"],
        "analysis.s": rollup.seconds("analysis.prune", "analysis.summaries"),
        "analysis.discharge_ratio": _ratio(c["analysis.pruned_guard_hits"], guards),
        "analysis.guard_crossings": guards,
        "summary.s": rollup.seconds("summary"),
        "summary.paths": c["summary.paths"],
        "refine.self_s": rollup.self_ns["refine"] / 1e9,
        "symex.run_calls": rollup.calls["symex.run"],
        "symex.self_s": rollup.self_ns["symex.run"] / 1e9,
        "solver.check_calls": checks,
        "solver.check_self_s": rollup.self_ns["solver.check"] / 1e9,
        "solver.result_cache_hit_ratio": _ratio(checks - sat_calls, checks),
        "solver.unsat_ratio": _ratio(c["solver.unsat"], checks),
        "sat.calls": sat_calls,
        "sat.s": rollup.seconds("sat"),
        "incremental.verify_current_s": rollup.seconds("incremental.verify_current"),
        "incremental.units_total": units,
        "incremental.units_recomputed": c["incremental.units_recomputed"],
        "incremental.reuse_ratio": _ratio(
            units - c["incremental.units_recomputed"], units),
        "planner.plan_s": rollup.seconds("planner.plan"),
        "serve.gate.submit_s": rollup.seconds("serve.gate"),
        "serve.snapshot.build_s": rollup.seconds("serve.snapshot.build"),
        "dns.zonefile.parse_s": rollup.seconds("dns.zonefile.parse"),
        "serve.handle_us": rollup.mean_us("serve.handle"),
        "serve.handle_self_us": rollup.mean_us("serve.handle", self_time=True),
        "wire.parse_us": rollup.mean_us("wire.parse"),
        "serve.encode_us": rollup.mean_us("serve.encode"),
        "engine.run_us": rollup.mean_us("engine.run"),
        "engine.decode_us": rollup.mean_us("engine.decode"),
        "wire.build_us": rollup.mean_us("wire.build"),
        "serve.distinct_key_ratio": _ratio(len(rollup.keys), handled),
        "serve.nxdomain_ratio": _ratio(c["serve.nxdomain"], c["serve.decoded"]),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
