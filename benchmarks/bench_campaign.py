"""Campaign throughput: the section 6.5 operating mode at benchmark scale.

The paper's workflow verifies each engine iteration against thousands of
randomly generated zone configurations. This benchmark measures one small
campaign (full pipeline per zone) for the corrected engine and for v3.0,
and cross-checks that the prover's verdict matches the differential
tester's on every zone.

Worker scaling
--------------

The second half measures the :mod:`repro.parallel` executor: one campaign
at workers ∈ {1, 2, 4, 8}, asserting the canonical report is bit-identical
at every point of the curve, and recording wall time / units-per-second /
speedup-over-1-worker per point. Run under pytest for the harness, or
standalone for machine-readable trajectory output::

    PYTHONPATH=src python benchmarks/bench_campaign.py \
        [--zones N] [--workers 1,2,4,8] [--out BENCH_campaign_workers.json]

The standalone mode writes a single JSON document (the repo's
``BENCH_*.json`` trajectory format) with one row per worker count.
"""

import argparse
import json
import sys

import pytest

from repro.core import VerifyOptions, run_campaign

_REPORTS = {}

#: Zone shape for the scaling curve: small enough that an 8×-fan-out run
#: finishes in CI, big enough that per-unit work dominates pool overhead.
SCALING_CONFIG = dict(num_hosts=2, num_wildcards=1, num_delegations=0,
                      num_cnames=1, num_mx=0)
SCALING_SEED = 31
SCALING_VERSION = "verified"


def run_worker_curve(num_zones, worker_counts):
    """One campaign per worker count; returns (rows, canonical) and
    asserts every point of the curve is canonically bit-identical."""
    rows = []
    canonical = None
    for workers in worker_counts:
        report = run_campaign(
            SCALING_VERSION, num_zones=num_zones, seed=SCALING_SEED,
            options=VerifyOptions(workers=workers), **SCALING_CONFIG,
        )
        if canonical is None:
            canonical = report.canonical_json()
        elif report.canonical_json() != canonical:
            raise AssertionError(
                f"workers={workers} diverged from workers={worker_counts[0]}"
            )
        perf = report.perf
        rows.append({
            "workers": workers,
            "zones": report.zones_run,
            "wall_seconds": round(report.elapsed_seconds, 3),
            "units_per_second": perf["units_per_second"],
            "busy_seconds": perf["busy_seconds"],
            "parallel_efficiency": perf["parallel_efficiency"],
            "compile_seconds": perf["compile_seconds"],
            "summarize_seconds": perf["summarize_seconds"],
            "solve_seconds": perf["solve_seconds"],
            "solver_checks_avoided": perf.get("solver_checks_avoided", 0),
            "guards_pruned": perf.get("guards_pruned", 0),
        })
    base = rows[0]["wall_seconds"]
    for row in rows:
        row["speedup"] = round(base / max(row["wall_seconds"], 1e-9), 2)
    return rows, canonical


@pytest.mark.parametrize("version", ["verified", "v3.0"])
def test_campaign(benchmark, version):
    report = benchmark.pedantic(
        run_campaign,
        args=(version,),
        kwargs=dict(num_zones=3, seed=31, num_hosts=4, num_wildcards=1,
                    num_delegations=1, num_cnames=1, num_mx=1),
        rounds=1,
        iterations=1,
    )
    _REPORTS[version] = report
    if version == "verified":
        assert report.zones_refuted == 0
    else:
        assert report.zones_refuted >= 1


def test_campaign_report(benchmark):
    for version in ("verified", "v3.0"):
        if version not in _REPORTS:
            _REPORTS[version] = run_campaign(
                version, num_zones=3, seed=31, num_hosts=4, num_wildcards=1,
                num_delegations=1, num_cnames=1, num_mx=1,
            )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    for version, report in _REPORTS.items():
        print(report.describe())
        zones_per_minute = 60 * report.zones_run / max(report.elapsed_seconds, 1e-9)
        print(f"  throughput: {zones_per_minute:.1f} zones/minute/core")


def test_worker_scaling(benchmark):
    """Reduced scaling curve under pytest: identity across worker counts
    plus a throughput print; the full 1/2/4/8 curve runs standalone."""
    rows, _canonical = benchmark.pedantic(
        run_worker_curve, args=(4, [1, 2]), rounds=1, iterations=1,
    )
    print()
    for row in rows:
        print(f"  workers={row['workers']}: {row['wall_seconds']:.1f}s wall, "
              f"{row['units_per_second']:.2f} units/s, "
              f"speedup {row['speedup']}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--zones", type=int, default=8,
                        help="campaign size per curve point")
    parser.add_argument("--workers", default="1,2,4,8",
                        help="comma-separated worker counts")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON document to FILE "
                        "(e.g. BENCH_campaign_workers.json)")
    args = parser.parse_args(argv)
    worker_counts = [int(w) for w in args.workers.split(",")]

    rows, canonical = run_worker_curve(args.zones, worker_counts)
    document = {
        "benchmark": "campaign_workers",
        "version": SCALING_VERSION,
        "zones": args.zones,
        "seed": SCALING_SEED,
        "config": SCALING_CONFIG,
        "canonical_sha": __import__("hashlib").sha256(
            canonical.encode()).hexdigest(),
        "identical_across_workers": True,  # run_worker_curve asserted it
        "rows": rows,
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
