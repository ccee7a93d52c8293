"""Compare two sets of benchmark runs, metric by metric.

Usage: ``python3 benchmarks/e2e/compare.py A.json B.json`` where each file
was written by ``run.py --out`` (any number of runs, appended). A is the
parent, B the change.

One row per workload and end-to-end metric: each side's median and
quartiles, how many seed-paired runs B won, and a verdict against the
metric's bound in ``BENCHMARK.json``:

- ``better`` / ``worse``: the medians differ by more than the bound;
- ``unchanged``: they do not;
- ``unresolved``: either side's quartile spread exceeds the bound, so
  the difference cannot be told from noise — unless every run of B reads
  better than every run of A, which is ``better``.

A gain is claimed only under the protocol in README.md (B wins at least
nine tenths of the seed-paired runs, and the medians differ by more than
A's own quartile spread); the ``B wins`` column gives the first part.

Counts the program reports (verdicts and solver checks per version, and
the per-layer counts of traced runs) are listed as ``exact`` only when
every run on both sides agrees.

Before the metrics, each side's incorrect runs and failed/attempted
operations are listed per workload. Metrics come from the correct runs
only, so B is rejected outright when any of its runs is incorrect or
its share of failed operations is higher than A's.

Runs of the same workload and seed must have identical input digests,
and every run must have the same ``seconds`` (which sets how much work a
run does); otherwise the comparison is refused with exit status 2. Exit
status is 1 when any metric is ``worse`` or B is rejected.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> List[Dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def input_conflicts(a: List[Dict], b: List[Dict]) -> List[str]:
    """(workload, seed) keys whose runs disagree on their input digests."""
    seen: Dict[Tuple[str, int], Dict] = {}
    conflicts = []
    for run in a + b:
        key = (run["workload"], run["seed"])
        inputs = run.get("inputs")
        if inputs is None:
            continue
        if key in seen and seen[key] != inputs:
            conflicts.append(f"{key[0]} seed {key[1]}")
        seen.setdefault(key, inputs)
    return sorted(set(conflicts))


def correctness(runs: List[Dict]) -> Tuple[int, int, int, int]:
    """(runs, incorrect runs, failed operations, attempted operations)."""
    return (len(runs), sum(1 for r in runs if not r["correct"]),
            sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (bm - am) / am
    if (a3 - a1) / am > bound or (b3 - b1) / bm > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better"
        return "unresolved"
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "unchanged"


def paired_wins(a: List[Dict], b: List[Dict], metric: str, better: str) -> str:
    by_seed = {run["seed"]: run["metrics"][metric] for run in a
               if metric in run["metrics"]}
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(by_seed[run["seed"]], run["metrics"][metric]) for run in b
             if run["seed"] in by_seed and metric in run["metrics"]]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    return f"{wins}/{len(pairs)}"


def counts(runs: List[Dict]) -> Dict[str, object]:
    """Every count a run reports that should repeat exactly."""
    out: Dict[str, object] = {}
    for run in runs:
        for version, row in run.get("details", {}).get("versions", {}).items():
            out.setdefault(f"{run['workload']} {version} verdict", set()).add(row["verdict"])
            out.setdefault(f"{run['workload']} {version} solver_checks",
                           set()).add(row["solver_checks"])
    return out


def layer_counts(runs: List[Dict], units: Dict[str, str]) -> Dict[str, set]:
    out: Dict[str, set] = defaultdict(set)
    for run in runs:
        for name, value in run.get("layers", {}).items():
            if units.get(name) == "count":
                out[f"{run['workload']} {name}"].add(value)
    return out


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    conflicts = input_conflicts(a_runs, b_runs)
    if conflicts:
        print("refusing to compare: input digests differ for "
              + ", ".join(conflicts), file=sys.stderr)
        return 2
    lengths = {run["seconds"] for run in a_runs + b_runs}
    if len(lengths) > 1:
        print(f"refusing to compare: runs of different lengths ({sorted(lengths)} "
              f"seconds)", file=sys.stderr)
        return 2
    workloads = sorted({r["workload"] for r in a_runs + b_runs})
    worse = False
    print(f"{'workload':<15} {'A incorrect':>11} {'A failed/attempted':>22} "
          f"{'B incorrect':>11} {'B failed/attempted':>22}")
    for workload in workloads:
        sides = [correctness([r for r in runs if r["workload"] == workload])
                 for runs in (a_runs, b_runs)]
        (_, _, a_failed, a_tried), (_, b_bad, b_failed, b_tried) = sides
        print(f"{workload:<15}" + "".join(
            f" {f'{bad}/{n}':>11} {f'{failed}/{tried}':>22}"
            for n, bad, failed, tried in sides))
        if b_bad or b_failed * max(a_tried, 1) > a_failed * max(b_tried, 1):
            print(f"  B rejected on {workload}: incorrect runs, or more failed "
                  f"operations than A")
            worse = True
    print()
    measured = lambda runs: [r for r in runs if r["purpose"] == "measure" and r["correct"]]
    a_plain, b_plain = measured(a_runs), measured(b_runs)
    header = (f"{'workload':<15} {'metric':<12} {'A median [q1, q3]':<30} "
              f"{'B median [q1, q3]':<30} {'change':>8} {'B wins':>7}  verdict")
    print(header)
    for workload in workloads:
        a = [r for r in a_plain if r["workload"] == workload]
        b = [r for r in b_plain if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_vals = [r["metrics"][name] for r in a if name in r["metrics"]]
            b_vals = [r["metrics"][name] for r in b if name in r["metrics"]]
            if not a_vals or not b_vals:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(a_vals), quartiles(b_vals)
            result = verdict(a_vals, b_vals, metric["better"], metric["bound"])
            worse = worse or result == "worse"
            print(f"{workload:<15} {name:<12} "
                  f"{f'{am:.5g} [{a1:.5g}, {a3:.5g}]':<30} "
                  f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':<30} "
                  f"{(bm - am) / am:>+8.1%} "
                  f"{paired_wins(a, b, name, metric['better']):>7}  {result}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exact = dict(counts(a_plain + b_plain))
    exact.update(layer_counts([r for r in a_runs + b_runs if r["purpose"] == "traced"],
                              units))
    if exact:
        print("\ncounts (must repeat exactly):")
        for name, values in sorted(exact.items()):
            state = "exact" if len(values) == 1 else f"DIFFERS {sorted(values, key=str)}"
            print(f"  {name:<58} {state}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
