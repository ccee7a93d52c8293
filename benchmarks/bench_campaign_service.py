"""Campaign-service benchmark: throughput, verdict mix, checkpoint cost.

Three questions about the continuous campaign daemon, measured:

- **units per second** at workers ∈ {1, 4, 8} — the service fans each
  scheduling batch through :mod:`repro.parallel`, so throughput should
  scale with the pool while the verdict ledger stays bit-identical at
  every point of the curve (asserted, not assumed: batching is fixed so
  the scheduler sees feedback at the same task boundaries regardless of
  worker count);
- **verdict mix** — what a seeded campaign against a clean and a buggy
  engine version actually yields (the v2.0 points double as a liveness
  check that the adversarial profiles keep finding the Table-2 bugs);
- **checkpoint overhead** — the crash-safety tax: cumulative seconds
  spent in ``CheckpointWriter.append`` (one fsync'd line append per unit)
  as a fraction of campaign wall time.

Run under pytest for the harness (one small point), or standalone for
the machine-readable trajectory::

    PYTHONPATH=src python benchmarks/bench_campaign_service.py \
        [--units N] [--workers 1,4,8] [--out BENCH_campaign_service.json]
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.campaign import CampaignService, CampaignServiceConfig
from repro.core.options import VerifyOptions
from repro.resilience.checkpoint import CheckpointWriter

SEED = 2023
VERSIONS = ("verified", "v2.0")
#: Fixed so every worker count schedules identically (feedback lands at
#: the same task boundaries); parallelism then only changes wall time.
BATCH_TASKS = 4


class _AppendTimer:
    """Accumulates wall time spent inside ``CheckpointWriter.append``."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self._original = None

    def __enter__(self):
        timer = self
        self._original = CheckpointWriter.append

        def timed(writer, unit_key, payload):
            start = time.perf_counter()
            try:
                return timer._original(writer, unit_key, payload)
            finally:
                timer.seconds += time.perf_counter() - start
                timer.calls += 1

        CheckpointWriter.append = timed
        return self

    def __exit__(self, *exc):
        CheckpointWriter.append = self._original
        return False


def run_point(workers, units, workdir):
    config = CampaignServiceConfig(
        corpus_dir=str(Path(workdir) / f"w{workers}"),
        seed=SEED,
        versions=VERSIONS,
        units=units,
        batch_tasks=BATCH_TASKS,
        minimize=False,
        status_port=None,
    )
    options = VerifyOptions(budget_seconds=120.0, workers=workers)
    service = CampaignService(config, options=options)
    with _AppendTimer() as checkpointing:
        start = time.perf_counter()
        report = service.run()
        wall = time.perf_counter() - start
    assert report.exit_code == 0, report.describe()
    assert report.units_completed >= units
    return {
        "workers": workers,
        "wall_seconds": round(wall, 3),
        "units_completed": report.units_completed,
        "units_per_second": round(report.units_completed / wall, 4),
        "verdict_mix": report.verdict_mix,
        "kinds": report.kinds,
        "regressions_captured": report.regressions.get("captured", 0),
        "checkpoint_seconds": round(checkpointing.seconds, 4),
        "checkpoint_appends": checkpointing.calls,
        "checkpoint_overhead_fraction": round(
            checkpointing.seconds / wall, 5) if wall > 0 else 0.0,
    }, Path(config.corpus_dir) / "ledger.jsonl"


def run_trajectory(units, workers_list, out=None):
    points = {}
    ledgers = {}
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as workdir:
        for workers in workers_list:
            point, ledger_path = run_point(workers, units, workdir)
            points[str(workers)] = point
            ledgers[workers] = ledger_path.read_bytes()
            print(
                f"workers={workers}: {point['units_per_second']:.3f} "
                f"units/s over {point['units_completed']} units, "
                f"checkpointing {point['checkpoint_overhead_fraction']:.2%} "
                f"of {point['wall_seconds']:.1f}s wall",
                flush=True,
            )
        baseline = ledgers[workers_list[0]]
        identical = all(blob == baseline for blob in ledgers.values())
    assert identical, "verdict ledger differs across worker counts"
    base_rate = points[str(workers_list[0])]["units_per_second"]
    for point in points.values():
        point["speedup"] = round(point["units_per_second"] / base_rate, 3)
    document = {
        "benchmark": "campaign_service",
        # Interpret the speedup column against this: on a 1-core host
        # the curve is flat and only the identity property is news.
        "host_cpus": os.cpu_count(),
        "seed": SEED,
        "versions": list(VERSIONS),
        "units": units,
        "batch_tasks": BATCH_TASKS,
        "points": points,
        "ledger_bit_identical_across_workers": identical,
    }
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out}")
    return document


def test_campaign_service_point(benchmark, tmp_path):
    """Harness entry: one small point, pinned to the pool path."""
    point, ledger = benchmark.pedantic(
        run_point, args=(2, 2, str(tmp_path)), rounds=1, iterations=1)
    assert point["units_completed"] == 2
    assert sum(point["verdict_mix"].values()) == 2
    assert ledger.exists()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--units", type=int, default=8)
    parser.add_argument("--workers", default="1,4,8")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    workers_list = [int(w) for w in args.workers.split(",") if w.strip()]
    document = run_trajectory(args.units, workers_list, out=args.out)
    if not args.out:
        print(json.dumps(document, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
