"""Partition-level fan-out: one verify split across the pool merges to
the same result for every worker count."""

from repro.core.options import VerifyOptions
from repro.core.pipeline import verify_engine
from repro.zonegen import GeneratorConfig, ZoneGenerator

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
            "compile", "summarize", "resolve", "solve"
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
