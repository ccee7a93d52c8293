"""The end-to-end benchmark: one command, four workloads, one verdict.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 2023 [--workload NAME]... \
        [--trace 0|1] [--out FILE]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``; it sets
how much work a run does, so runs are comparable only at the same value
(``compare.py`` refuses others).

With ``--trace 0`` (the default), each workload runs once, untraced, and
every end-to-end metric is printed by name with its unit. With ``--trace
1`` each workload instead runs twice with a single round each, doing a
round's share of the work (see ``workloads.py``) and never stopping the
program for calibrations: untraced, then with every layer wrapped in spans
(see ``traced.py``); the per-layer metrics come from the traced pass, and
``trace.overhead.*`` divides each end-to-end metric of the traced pass by
the untraced one. The last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``, carrying the
end-to-end metrics, or with ``--trace`` the per-layer ones. Exit status is
0 only when every verdict and checked answer matched the known answers.

``--out FILE`` appends each run's full record (metrics, details, input
digests, host facts) to FILE for ``compare.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="work per run, split across its rounds "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: run one untraced and one traced round "
                        "instead, and print the per-layer metrics")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append each run's record to FILE (JSON)")
    return parser.parse_args(argv)


def host_facts() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, purpose: str,
                 program_cpus: Optional[set]) -> Dict[str, object]:
    """One run of one workload. ``purpose`` is ``measure`` (the end-to-end
    metrics), or ``trace-baseline`` and ``traced``, the single-round
    pair a ``--trace`` invocation compares."""
    import calibrate
    import workloads

    traced = purpose == "traced"
    measure = purpose == "measure"
    workdir = root / ".bench_build" / "e2e" / f"{name}-{seed}-{os.getpid()}-{purpose}"
    shutil.rmtree(workdir, ignore_errors=True)
    # A traced invocation runs one round's share, twice.
    ctx = workloads.Context(root, seed, seconds if measure else seconds / workloads.ROUNDS,
                            workdir, traced, program_cpus,
                            rounds=workloads.ROUNDS if measure else 1,
                            stop_slices=measure)
    record: Dict[str, object] = {"workload": name, "seed": seed, "seconds": seconds,
                                 "purpose": purpose}
    started = time.perf_counter()
    try:
        out = workloads.WORKLOADS[name](ctx)
    except workloads.BenchError as exc:
        log = ctx.log_path.read_text(errors="replace") if ctx.log_path.exists() else ""
        print(f"{name}: {exc}\n--- program stderr (tail) ---\n{log[-4000:]}",
              file=sys.stderr)
        record.update(correct=False, attempted=1, failed=1, problems=[str(exc)],
                      metrics={})
        return record
    out.metrics["peak_rss_mb"] = max(out.rss_mb)
    out.details.update(
        retries=out.retries,
        speed_ratio=statistics.median(ctx.calibrator.speeds) / calibrate.REFERENCE_SPEED,
        calibrations=len(ctx.calibrator.speeds),
    )
    record.update(
        correct=not out.problems,
        attempted=out.attempted,
        failed=out.failed,
        problems=out.problems,
        metrics=out.metrics,
        details=out.details,
        inputs=out.inputs,
        wall_s=time.perf_counter() - started,
    )
    if traced:
        import traced as tracing

        rollup = tracing.Rollup()
        for path in sorted((workdir / "trace").glob("*.jsonl")):
            rollup.add_file(path)
        record["layers"] = tracing.layer_metrics(rollup)
        record["trace"] = {"spans": rollup.spans, "roots": rollup.roots,
                           "unbalanced_roots": rollup.unbalanced,
                           "core.validate_s": rollup.seconds("core.validate")}
        if rollup.unbalanced:
            record["correct"] = False
            record["problems"].append(
                f"{rollup.unbalanced} root span(s) whose children do not sum "
                f"to the parent within 2%")
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def layer_record(untraced: Dict, traced: Dict, units: Dict[str, str]) -> Dict[str, float]:
    """Per-layer metrics: the traced run's layers; from the untraced run
    the open-loop generator's lateness (0 where none ran), its resends
    and the host's speed; and traced/untraced per metric."""
    layers = dict(traced.get("layers", {}))
    details = untraced["details"]
    layers["loadgen.late_p99_ms"] = details.get("late_p99_ms", 0.0)
    layers["loadgen.retries"] = details["retries"]
    layers["host.speed_ratio"] = details["speed_ratio"]
    for metric in units:
        before = untraced["metrics"].get(metric)
        after = traced["metrics"].get(metric)
        if before and after is not None:
            layers[f"trace.overhead.{metric}"] = after / before
    return layers


def print_record(record: Dict, units: Dict[str, str]) -> None:
    state = "correct" if record["correct"] else "INCORRECT"
    print(f"{record['workload']} seed={record['seed']} {record['purpose']}: {state}, "
          f"{record['attempted']} attempted, {record['failed']} failed")
    for problem in record.get("problems", [])[:20]:
        print(f"  problem: {problem}")
    for name, value in record["metrics"].items():
        print(f"  {name:<14} {value:12.4f} {units.get(name, '')}")
    for name, value in record.get("details", {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"  ({name} {value:.4f})")
    if record.get("details", {}).get("late_p99_ms", 0.0) > 1.0:
        print("  (the generator ran more than 1 ms late at p99: latency from "
              "this run is not valid)")
    if "trace" in record:
        trace = record["trace"]
        print(f"  (trace: {trace['spans']} spans, {trace['roots']} roots, "
              f"{trace['unbalanced_roots']} whose children miss the parent by >2%)")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: run from the repository root (needs src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}", file=sys.stderr)
        return 2
    # Unwind on SIGTERM too, so every child process is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Build: byte-compile the program once so every run starts alike.
    compileall.compile_dir(str(root / "src"), quiet=1)
    host = host_facts()
    # One CPU for the program, one for this process (the load generator).
    cpus = sorted(os.sched_getaffinity(0))
    program_cpus = {cpus[0]} if len(cpus) > 1 else None
    if program_cpus:
        os.sched_setaffinity(0, {cpus[1]})

    records = []
    final_metrics: Dict[str, Dict[str, object]] = {}
    correct, attempted, failed = True, 0, 0
    for name in names:
        purposes = ["trace-baseline", "traced"] if args.trace else ["measure"]
        runs = []
        for purpose in purposes:
            runs.append(run_workload(root, name, args.seed, seconds, purpose,
                                     program_cpus))
            if not runs[-1]["correct"]:
                break
        records.extend(runs)
        for record in runs:
            record["host"] = host
            print_record(record, e2e_units)
            correct = correct and record["correct"]
            attempted += record["attempted"]
            failed += record["failed"]
        if args.trace:
            if len(runs) < 2 or not runs[1]["correct"]:
                correct = False
                continue
            runs[1]["layers"] = layer_record(runs[0], runs[1], e2e_units)
            shown, shown_units = runs[1]["layers"], layer_units
            print(f"{name} per-layer (traced run):")
            for metric, value in shown.items():
                print(f"  {metric:<32} {value:14.6f} {layer_units.get(metric, '')}")
        else:
            shown, shown_units = runs[0]["metrics"], e2e_units
        prefix = "" if len(names) == 1 else f"{name}:"
        for metric, unit in shown_units.items():
            if metric in shown:
                final_metrics[prefix + metric] = {"value": shown[metric], "unit": unit}
            else:
                correct = False

    if args.out:
        path = Path(args.out)
        saved = (json.loads(path.read_text(encoding="utf-8"))
                 if path.exists() else {"runs": []})
        saved["runs"].extend(records)
        path.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
