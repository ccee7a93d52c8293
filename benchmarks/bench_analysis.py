"""Static-analysis discharge: what the interprocedural pass buys.

One verify of the corrected engine with the panic-pruning pass off and
one with it on, on the same zone. The off run is the denominator: every
panic guard goes to the solver. The on run's residual guard checks give
the discharge ratio (paper-style headline: the fraction of guard
feasibility queries the relational domain answered statically), and the
solve-phase timings give the wall-clock effect.

Run under pytest for the regression bar, or standalone for the
machine-readable snapshot::

    PYTHONPATH=src python benchmarks/bench_analysis.py \
        [--out BENCH_analysis.json]

The checked-in ``BENCH_analysis.json`` is the reference snapshot; the CI
analysis gate re-measures the discharge ratio and fails if it drops
below ``floors.discharge_ratio`` recorded there.
"""

import argparse
import json

import pytest

from repro.core.pipeline import VerificationSession
from repro.zonegen import minimal_zone

#: The regression floor the CI gate enforces (and the pytest bar below
#: asserts). Deliberately under the measured ~98% so a small, explained
#: precision loss needs a snapshot refresh, not an emergency.
DISCHARGE_FLOOR = 0.80


def measure(version="verified"):
    """Verify ``version`` with analysis off and on; return the comparison."""
    zone = minimal_zone()
    off = VerificationSession(zone, version, analysis=False).verify()
    on = VerificationSession(zone, version, analysis=True).verify()
    assert on.verdict == off.verdict, "pruning changed the verdict"
    baseline = off.analysis["panic_guard_checks"]
    residual = on.analysis["panic_guard_checks"]
    row = {
        "version": version,
        "verdict": on.verdict,
        "guard_checks_off": baseline,
        "guard_checks_on": residual,
        "discharge_ratio": round((baseline - residual) / baseline, 4),
        "solver_checks_off": off.solver_checks,
        "solver_checks_on": on.solver_checks,
        "solver_checks_avoided": on.analysis["solver_checks_avoided"],
        "guards_total": on.analysis.get("guards_total", 0),
        "guards_pruned": on.analysis.get("guards_pruned", 0),
        "residual_by_function": on.analysis["guard_checks_by_function"],
        "discharged_by_function": on.analysis["pruned_hits_by_function"],
        "summary_digest": on.analysis.get("summary_digest"),
        "solve_seconds_off": round(
            (off.phase_seconds or {}).get("solve", 0.0), 3),
        "solve_seconds_on": round(
            (on.phase_seconds or {}).get("solve", 0.0), 3),
    }
    return row


def test_discharge_snapshot(benchmark):
    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print(f"  guard checks: {row['guard_checks_off']} -> "
          f"{row['guard_checks_on']} "
          f"({row['discharge_ratio']:.1%} discharged)")
    print(f"  solver checks: {row['solver_checks_off']} -> "
          f"{row['solver_checks_on']}")
    assert row["discharge_ratio"] >= DISCHARGE_FLOOR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON document to FILE "
                        "(e.g. BENCH_analysis.json)")
    parser.add_argument("--check", default=None, metavar="FILE",
                        help="gate mode: compare the fresh measurement "
                        "against the floors in FILE; exit 1 on regression")
    args = parser.parse_args(argv)

    row = measure()
    document = {
        "benchmark": "analysis_discharge",
        "floors": {"discharge_ratio": DISCHARGE_FLOOR},
        "row": row,
    }
    print(json.dumps(document, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            reference = json.load(handle)
        floor = reference["floors"]["discharge_ratio"]
        if row["discharge_ratio"] < floor:
            print(f"ANALYSIS GATE: discharge {row['discharge_ratio']:.1%} "
                  f"below floor {floor:.0%}")
            return 1
        print(f"analysis gate ok: {row['discharge_ratio']:.1%} >= "
              f"{floor:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
