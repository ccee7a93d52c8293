"""Equivalence-class planning at TLD scale: O(behaviours) solver work.

The by-label planner verifies one unit per below-apex subtree — linear in
zone size, the ROADMAP bottleneck for million-record zones. The
equivalence-class planner collapses behaviourally identical subtrees into
one symbolic verify per class. This benchmark measures that collapse on
TLD-shaped zones from :func:`repro.zonegen.tld_zone`:

- **calibration** (small scale): both planners run fully through the
  incremental engine; verdicts must match and the measured checks-per-unit
  of the by-label run anchors the large-scale estimates;
- **scale rows** (10k / 100k / 1M records): the EC planner runs fully
  (units, solver checks, wall time); the by-label cost is *estimated* as
  units x calibrated checks-per-unit, because actually running hundreds of
  thousands of symbolic sessions is exactly the cost the planner exists to
  avoid — the estimate is a lower bound (the by-label miss unit also grows
  O(tops) exclusion constraints per check, which the estimate ignores);
- **per-delta re-verify**: glue-address updates applied through
  ``IncrementalVerifier.adopt(new_zone, delta)`` — the flat-cost entry
  point — timed per delta. The acceptance bar is that this cost stays flat
  from 10k to 1M records.

Run under pytest (``pytest benchmarks/bench_ec.py``) for the
pytest-benchmark harness, or standalone for machine-readable output::

    PYTHONPATH=src python benchmarks/bench_ec.py [--scales 10000,100000]

The standalone mode prints a single JSON document (the ec-smoke CI job
regenerates the 100k row on every push and uploads it as the
``BENCH_ec`` artifact).
"""

import argparse
import json
import sys
import time

from repro.core.options import VerifyOptions
from repro.dns.rdata import ARdata
from repro.dns.records import ResourceRecord
from repro.dns.rtypes import RRType
from repro.incremental.cache import SummaryCache
from repro.incremental.delta import RecordChange, ZoneDelta
from repro.incremental.engine import IncrementalVerifier
from repro.incremental.planner.by_label import ByLabelPlanner
from repro.zonegen import tld_zone

DEFAULT_SCALES = (10_000, 100_000, 1_000_000)
#: Largest TLD zone where the full by-label run is still affordable: every
#: by-label unit is a complete symbolic session against the whole zone
#: (~10s and ~1.7k solver checks each on one core), so the calibration
#: cost is units x that, and checks-per-unit only grows with zone size —
#: which is what keeps the large-scale estimate a *lower* bound.
CALIBRATION_SCALE = 64
VERSION = "verified"
DELTA_ROUNDS = 3
SEED = 2023


def calibrate(scale=CALIBRATION_SCALE, version=VERSION):
    """Run BOTH planners fully on a small TLD zone.

    Asserts bit-identity of the verdicts and returns the by-label
    checks-per-unit figure that anchors the large-scale estimates."""
    zone = tld_zone(scale, seed=SEED)
    measured = {}
    for planner in ("by-label", "equivalence-class"):
        verifier = IncrementalVerifier(
            zone, version, cache=SummaryCache(memory_only=True),
            options=VerifyOptions(planner=planner),
        )
        t0 = time.perf_counter()
        outcome = verifier.verify_current()
        seconds = time.perf_counter() - t0
        assert outcome.result.verified, outcome.result.describe()
        measured[planner] = {
            "solver_checks": outcome.result.solver_checks,
            "units": outcome.reuse.partitions_total,
            "seconds": round(seconds, 3),
        }
    by_label = measured["by-label"]
    ec = measured["equivalence-class"]
    return {
        "scale": scale,
        "records": len(zone),
        "verdicts_match": True,
        "by_label": by_label,
        "equivalence_class": ec,
        "checks_ratio": round(
            by_label["solver_checks"] / ec["solver_checks"], 2
        ),
        "checks_per_by_label_unit": by_label["solver_checks"] / by_label["units"],
    }


def glue_update_delta(zone, round_no):
    """One universe-preserving rdata update on a delegation's own glue
    record — the dominant real-world TLD delta shape (a registrant moves
    hosts). Deliberately NOT the registry's shared nameserver host
    (`ns1.nic`): renumbering shared infrastructure legitimately re-signs
    every consuming class and is a different (rarer, costlier) shape."""
    origin_depth = len(zone.origin.labels)
    for rec in zone.records:
        if (
            rec.rtype is RRType.A
            and len(rec.rname.labels) == origin_depth + 2
            and rec.rname.labels[0] == "ns1"
            and rec.rname.labels[1] != "nic"
        ):
            fresh = ARdata(f"172.16.{round_no % 250}.{(round_no * 7) % 250 + 1}")
            return ZoneDelta(zone.origin, (
                RecordChange("delete", rec),
                RecordChange("add", ResourceRecord(
                    rec.rname, rec.rtype, fresh, rec.ttl)),
            ))
    raise ValueError("zone has no in-bailiwick glue record to update")


def bench_scale(scale, calib, version=VERSION, delta_rounds=DELTA_ROUNDS):
    t0 = time.perf_counter()
    zone = tld_zone(scale, seed=SEED)
    gen_seconds = time.perf_counter() - t0

    by_label_units = len(ByLabelPlanner().plan(zone))

    verifier = IncrementalVerifier(
        zone, version, cache=SummaryCache(memory_only=True),
        options=VerifyOptions(planner="equivalence-class"),
    )
    t0 = time.perf_counter()
    warm = verifier.verify_current()
    warm_seconds = time.perf_counter() - t0
    assert warm.result.verified, warm.result.describe()

    ec_checks = warm.result.solver_checks
    estimated = int(by_label_units * calib["checks_per_by_label_unit"])

    deltas = []
    current = zone
    for round_no in range(1, delta_rounds + 1):
        delta = glue_update_delta(current, round_no)
        # Zone materialisation is the publisher's cost, not the
        # verifier's: keep delta.apply outside the timer so the row
        # isolates re-verification.
        new_zone = delta.apply(current)
        t0 = time.perf_counter()
        outcome = verifier.adopt(new_zone, delta)
        delta_seconds = time.perf_counter() - t0
        assert outcome.result.verified, outcome.result.describe()
        deltas.append({
            "round": round_no,
            "seconds": round(delta_seconds, 3),
            "solver_checks": outcome.result.solver_checks,
            "units_recomputed": outcome.reuse.partitions_recomputed,
            "units_total": outcome.reuse.partitions_total,
        })
        current = new_zone

    return {
        "scale": scale,
        "records": len(zone),
        "zone_gen_seconds": round(gen_seconds, 2),
        "by_label_units": by_label_units,
        "ec_units": warm.reuse.partitions_total,
        "ec_solver_checks": ec_checks,
        "by_label_solver_checks_estimated_lower_bound": estimated,
        "checks_ratio_vs_estimate": round(estimated / ec_checks, 1),
        "warm_seconds": round(warm_seconds, 2),
        "deltas": deltas,
        "delta_seconds_mean": round(
            sum(d["seconds"] for d in deltas) / len(deltas), 3
        ) if deltas else None,
    }


def run_report(scales=DEFAULT_SCALES, version=VERSION,
               delta_rounds=DELTA_ROUNDS):
    calib = calibrate(version=version)
    rows = [
        bench_scale(scale, calib, version=version, delta_rounds=delta_rounds)
        for scale in scales
    ]
    return {
        "benchmark": "bench_ec",
        "version": version,
        "seed": SEED,
        "estimate_basis": (
            f"by-label checks-per-unit measured at the "
            f"{calib['scale']}-record calibration scale, where both "
            f"planners ran fully and verdicts matched"
        ),
        "calibration": calib,
        "rows": rows,
    }


_REPORT = {}


def test_ec_collapse(benchmark):
    report = benchmark.pedantic(
        lambda: run_report(scales=(10_000,), delta_rounds=2),
        rounds=1, iterations=1,
    )
    _REPORT.update(report)
    assert report["calibration"]["verdicts_match"]
    assert report["calibration"]["checks_ratio"] > 2.0
    row = report["rows"][0]
    assert row["checks_ratio_vs_estimate"] >= 10.0
    assert row["ec_units"] < row["by_label_units"] / 100


def test_ec_report(benchmark):
    if not _REPORT:
        _REPORT.update(run_report(scales=(10_000,), delta_rounds=2))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    print("Equivalence-class planning vs by-label (estimated) cost:")
    header = (f"{'records':>9} {'BL units':>9} {'EC units':>9} "
              f"{'EC checks':>10} {'BL est.':>10} {'ratio':>7} "
              f"{'warm s':>7} {'delta s':>8}")
    print(header)
    for row in _REPORT["rows"]:
        print(
            f"{row['records']:>9} {row['by_label_units']:>9} "
            f"{row['ec_units']:>9} {row['ec_solver_checks']:>10} "
            f"{row['by_label_solver_checks_estimated_lower_bound']:>10} "
            f"{row['checks_ratio_vs_estimate']:>6.0f}x "
            f"{row['warm_seconds']:>7.2f} {row['delta_seconds_mean']:>8.3f}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales", default=",".join(str(s) for s in DEFAULT_SCALES),
        help="comma-separated zone record counts (default 10000,100000,1000000)",
    )
    parser.add_argument("--version", default=VERSION, help="engine version")
    parser.add_argument("--delta-rounds", type=int, default=DELTA_ROUNDS,
                        help="per-scale incremental deltas to time")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    args = parser.parse_args(argv)
    scales = tuple(int(part) for part in args.scales.split(",") if part)
    report = run_report(scales=scales, version=args.version,
                        delta_rounds=args.delta_rounds)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
