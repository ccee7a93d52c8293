"""Partition-level fan-out: one verify split across the pool merges to
the same result for every worker count."""

import pytest

from repro.core.options import VerifyOptions
from repro.core.pipeline import verify_engine
from repro.dns.rdata import ARdata
from repro.dns.records import ResourceRecord
from repro.dns.rtypes import RRType
from repro.incremental.delta import RecordChange, ZoneDelta
from repro.incremental.engine import IncrementalVerifier
from repro.parallel import pool
from repro.resilience import InjectedFault, faults
from repro.zonegen import GeneratorConfig, ZoneGenerator, minimal_zone

CONFIG = GeneratorConfig(seed=11, num_hosts=2, num_wildcards=1,
                         num_delegations=0, num_cnames=1, num_mx=0)


def canonical(result):
    """The deterministic identity of a merged verify: everything except
    wall-clock timings."""
    return {
        "verdict": result.verdict,
        "verified": result.verified,
        "unknown_reason": result.unknown_reason,
        "solver_checks": result.solver_checks,
        "spurious_mismatches": result.spurious_mismatches,
        "bugs": [
            (b.version, b.categories, b.qname_codes, b.qtype_code,
             b.description, b.validated)
            for b in result.bugs
        ],
        "layers": [
            (l.name, l.route, l.paths, l.cases, l.verified)
            for l in result.layers
        ],
    }


class TestPartitionedVerify:
    def test_worker_counts_agree_on_verified_engine(self):
        zone = ZoneGenerator(CONFIG).generate(0)
        one = verify_engine(zone, "verified", VerifyOptions(workers=1))
        two = verify_engine(zone, "verified", VerifyOptions(workers=2))
        assert canonical(one) == canonical(two)
        assert one.verdict == "VERIFIED"
        # Partition-prefixed layer names prove the partitioned path ran.
        assert any(l.name.startswith(("apex:", "outside:", "miss:"))
                   for l in one.layers)

    def test_worker_counts_agree_on_buggy_engine(self):
        zone = ZoneGenerator(CONFIG).generate(0)
        one = verify_engine(zone, "v1.0", VerifyOptions(workers=1))
        two = verify_engine(zone, "v1.0", VerifyOptions(workers=2))
        assert canonical(one) == canonical(two)
        assert one.verdict == "BUG"
        assert one.bugs  # bug reports survive the worker JSON round-trip

    def test_partitioned_result_carries_phase_counters(self):
        zone = ZoneGenerator(CONFIG).generate(0)
        result = verify_engine(zone, "verified", VerifyOptions(workers=2))
        assert set(result.phase_seconds) == {
            "compile", "analysis", "summarize", "resolve", "solve"
        }
        assert result.phase_seconds["resolve"] > 0
        assert result.phase_seconds["solve"] > 0

    def test_per_unit_budget_degrades_to_unknown(self):
        zone = ZoneGenerator(CONFIG).generate(0)
        result = verify_engine(
            zone, "verified", VerifyOptions(workers=2, fuel=10)
        )
        assert result.verdict == "UNKNOWN"
        assert result.verified is False


def address_update(zone):
    """A one-record rdata rewrite (the serving plane's dominant delta)."""
    record = next(r for r in zone.records if r.rtype is RRType.A)
    return ZoneDelta(zone.origin, (
        RecordChange("delete", record),
        RecordChange("add", ResourceRecord(record.rname, record.rtype,
                                           ARdata("192.0.2.222"), record.ttl)),
    ))


def _incremental_runs(zone, version, options):
    verifier = IncrementalVerifier(zone, version, options=options)
    first = verifier.verify_current()
    second = verifier.apply(address_update(zone))
    return [
        (canonical(outcome.result), outcome.reuse.reused_keys,
         outcome.reuse.recomputed_keys)
        for outcome in (first, second)
    ]


class TestOneUnitRunner:
    """Every worker count, ``None`` included, runs the same units through
    ``partition_worker``; a dead worker's unit is rerun in the parent
    from the same payload."""

    @pytest.mark.parametrize("version", ["verified", "v1.0"])
    @pytest.mark.parametrize("planner", ["by-label", "equivalence-class"])
    def test_worker_counts_agree_through_a_delta(self, planner, version):
        zone = ZoneGenerator(CONFIG).generate(0)
        runs = [
            _incremental_runs(zone, version,
                              VerifyOptions(workers=workers, planner=planner))
            for workers in (None, 1, 2)
        ]
        assert runs[0] == runs[1] == runs[2]
        (first, _, _), (_, reused, recomputed) = runs[0]
        assert reused and recomputed  # the delta replayed some units
        assert first["verdict"] == ("BUG" if version == "v1.0" else "VERIFIED")

    def test_dead_workers_rerun_under_their_own_fault_plan(self, monkeypatch):
        zone = ZoneGenerator(CONFIG).generate(0)

        def runs():
            return [
                canonical(verify_engine(
                    zone, "verified", VerifyOptions(workers=2, faults=spec)))
                for spec in (None, "solver.exhaust=3")
            ]

        clean, faulted = runs()
        # Exhausted solver checks leave their trace in the layer records.
        assert faulted != clean
        monkeypatch.setattr(pool, "run_units", _every_worker_dies)
        assert runs() == [clean, faulted]

    @pytest.mark.parametrize("workers", [None, 1, 2])
    @pytest.mark.parametrize("planner", ["by-label", "equivalence-class"])
    def test_compile_fault_raises_for_every_runner(self, planner, workers):
        options = VerifyOptions(workers=workers, planner=planner,
                                faults="compile=1")
        with pytest.raises(InjectedFault):
            verify_engine(minimal_zone(), "verified", options)
        assert faults.active_plan() is None


def _every_worker_dies(worker, payloads, workers, grace_seconds=None):
    """A pool whose every worker process vanished mid-unit."""
    for index in range(len(payloads)):
        yield index, pool.DIED, None
