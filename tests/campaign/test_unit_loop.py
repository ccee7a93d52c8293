"""The unit loop both campaign drivers share: a pool stall is typed
``UNKNOWN(wall-clock-deadline)`` in the one-shot report and in the
service's ledger alike, and the service's event stream stays conserved."""

import pytest

from repro.campaign import (
    CampaignService,
    CampaignServiceConfig,
    conservation,
    read_events,
    read_ledger,
)
from repro.core import VerifyOptions, run_campaign
from repro.core.campaign import CampaignUnit, run_unit_loop
from repro.parallel import pool
from repro.parallel.counters import PerfCounters
from repro.resilience import verdicts
from repro.zonegen import minimal_zone
from repro.zonegen.mutate import mutate_zone


def _stall_every_unit(worker, payloads, workers, grace_seconds=None):
    """A pool whose workers all wedge past the grace period."""
    for index in range(len(payloads)):
        yield index, pool.TIMEOUT, None


def _one_shot(tmp_path):
    report = run_campaign("verified", zones=[minimal_zone()],
                          options=VerifyOptions(budget_seconds=30.0))
    assert report.perf["units_timed_out"] == 1
    return [verdict.to_json() for verdict in report.verdicts]


def _service(tmp_path):
    config = CampaignServiceConfig(corpus_dir=str(tmp_path / "corpus"),
                                   seed=7, versions=("verified",), units=1,
                                   batch_tasks=1, status_port=None)
    service = CampaignService(config,
                              options=VerifyOptions(budget_seconds=30.0))
    report = service.run()
    assert report.reason == "units"
    assert report.units_requeued == 0
    totals = conservation(read_events(service.events_path))
    assert totals["scheduled"] == 1
    assert totals["completed"] == 1
    assert totals["in_flight"] == 0
    assert totals["min_in_flight"] == 0
    return read_ledger(service.ledger_path)


@pytest.mark.parametrize("driver", [_one_shot, _service],
                         ids=["one-shot", "service"])
def test_pool_stall_is_unknown_deadline(driver, tmp_path, monkeypatch):
    monkeypatch.setattr(pool, "run_units", _stall_every_unit)
    rows = driver(tmp_path)
    assert len(rows) == 1
    assert rows[0]["verdict"] == verdicts.UNKNOWN
    assert rows[0]["unknown_reason"] == verdicts.REASON_DEADLINE
    assert rows[0]["solver_checks"] == 0


def _mutation_unit_verdicts(options):
    base = minimal_zone()
    units = [CampaignUnit(index=3, zone=mutate_zone(base, seed=5),
                          version="v1.0", key={"unit": 3}, base_zone=base)]
    rows = []
    for _, verdict, _, _ in run_unit_loop(units, options, PerfCounters()):
        row = verdict.to_json()
        del row["elapsed_seconds"]
        rows.append(row)
    return rows


@pytest.mark.parametrize("spec", ["seed:7:0.02", "seed:7:0.05"])
def test_mutation_unit_is_identical_across_worker_counts(spec):
    """A mutation unit's nested verifier stays in-process under the
    unit's own fault plan, whatever the campaign's worker count."""
    options = VerifyOptions(faults=spec)
    sequential = _mutation_unit_verdicts(options)
    assert sequential == _mutation_unit_verdicts(options.with_(workers=1))
