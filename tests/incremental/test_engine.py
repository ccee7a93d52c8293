"""IncrementalVerifier behaviour: reuse accounting, persistence, the
acceptance speedup bar, and the cached monolithic verify that shares the
partition verdict record."""

import pytest

from repro.core.options import VerifyOptions
from repro.core.pipeline import (
    VerificationSession,
    _IR_CACHE,
    clear_ir_cache,
    verify_engine,
)
from repro.dns.rdata import ARdata
from repro.dns.records import ResourceRecord
from repro.dns.rtypes import RRType
from repro.dns.zonefile import parse_zone_text
from repro.engine.control import ENGINE_VERSIONS
from repro.incremental.cache import SummaryCache
from repro.incremental.delta import RecordChange, ZoneDelta
from repro.incremental.engine import IncrementalVerifier, verify_cached
from repro.zonegen import evaluation_zone, minimal_zone

ZONE_TEXT = """\
$ORIGIN shop.example.
@ IN SOA ns1.shop.example. hostmaster.shop.example. 7 3600 600 86400 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
www IN TXT "storefront"
*.tenants IN A 192.0.2.90
"""


@pytest.fixture()
def zone():
    return parse_zone_text(ZONE_TEXT)


def www_second_address(zone, address="192.0.2.99"):
    """A second ``A`` record under ``www``: a single-record,
    universe-preserving edit the engine sees (an address rewrite is not
    one, see ``test_engine_invisible_edits``)."""
    owner = zone.origin.prepend("www")
    return ZoneDelta(
        zone.origin,
        (RecordChange("add", ResourceRecord(owner, RRType.A, ARdata(address))),),
    )


class TestAcceptanceSpeedup:
    def test_single_record_delta_is_5x_cheaper(self, zone):
        """ISSUE acceptance bar: ≥5× fewer solver checks than from-scratch
        after a single-record delta on the pinned shop.example. zone."""
        verifier = IncrementalVerifier(zone, "verified")
        verifier.verify_current()
        outcome = verifier.apply(www_second_address(zone))
        scratch = verify_engine(verifier.zone, "verified")
        assert scratch.solver_checks >= 5 * outcome.result.solver_checks
        assert outcome.reuse.partitions_recomputed == 1
        assert outcome.reuse.recomputed_keys == ("sub:www",)


class TestReuseAccounting:
    def test_cold_run_recomputes_everything(self, zone):
        outcome = IncrementalVerifier(zone, "verified").verify_current()
        reuse = outcome.reuse
        assert reuse.partitions_reused == 0
        assert reuse.partitions_total == reuse.partitions_recomputed == 6
        assert reuse.fresh_checks == outcome.result.solver_checks > 0
        assert reuse.reused_checks == 0

    def test_identical_rerun_replays_everything(self, zone):
        verifier = IncrementalVerifier(zone, "verified")
        first = verifier.verify_current()
        second = verifier.verify_current()
        assert second.reuse.partitions_reused == second.reuse.partitions_total
        assert second.result.solver_checks == 0
        assert second.reuse.reused_checks == first.result.solver_checks
        assert second.result.verified == first.result.verified

    def test_delta_reuse_statistics(self, zone):
        verifier = IncrementalVerifier(zone, "verified")
        verifier.verify_current()
        outcome = verifier.apply(www_second_address(zone))
        assert outcome.reuse.records_changed == 1
        assert set(outcome.reuse.reused_keys) == {
            "apex", "outside", "miss", "sub:ns1", "sub:tenants",
        }
        assert outcome.result.cache_stats is None  # merged result, engine stats live in reuse
        assert outcome.reuse.cache["hits"] > 0

    def test_persistent_cache_survives_processes(self, zone, tmp_path):
        cache = SummaryCache(cache_dir=tmp_path)
        IncrementalVerifier(zone, "verified", cache=cache).verify_current()
        fresh_cache = SummaryCache(cache_dir=tmp_path)
        outcome = IncrementalVerifier(zone, "verified", cache=fresh_cache).verify_current()
        assert outcome.reuse.partitions_reused == outcome.reuse.partitions_total
        assert outcome.result.solver_checks == 0

    def test_ablation_does_not_replay_summarized_verdicts(self):
        """``use_summaries`` is part of the verdict key: an ablation run
        sharing a cache with a summarized one recomputes every unit and
        reports what a fresh ablation run does."""
        cache = SummaryCache(memory_only=True)
        IncrementalVerifier(minimal_zone(), "verified", cache=cache).verify_current()
        ablation = VerifyOptions(use_summaries=False)
        shared = IncrementalVerifier(
            minimal_zone(), "verified", cache=cache, options=ablation
        ).verify_current()
        fresh = IncrementalVerifier(
            minimal_zone(), "verified", options=ablation
        ).verify_current()
        assert shared.reuse.partitions_reused == 0
        assert shared.result.solver_checks == fresh.result.solver_checks > 0
        assert [l.name for l in shared.result.layers] == [
            l.name for l in fresh.result.layers
        ]
        assert {l.name.split(":")[-1] for l in shared.result.layers} == {"Resolve"}

    def test_buggy_version_replays_bug_reports(self, zone):
        verifier = IncrementalVerifier(zone, "v1.0")
        first = verifier.verify_current()
        assert first.result.bugs
        second = verifier.verify_current()
        assert second.result.solver_checks == 0
        assert [b.description for b in second.result.bugs] == [
            b.description for b in first.result.bugs
        ]


class TestOptionsReachTheUnit:
    """``options`` is the verifier's only configuration channel: the
    sequential path honours every field the pooled path does."""

    def test_analysis_off(self):
        live = IncrementalVerifier(
            minimal_zone(), options=VerifyOptions(analysis=False)
        ).verify_current().result
        pooled = IncrementalVerifier(
            minimal_zone(), options=VerifyOptions(workers=1, analysis=False)
        ).verify_current().result
        assert live.analysis["enabled"] is False
        assert pooled.analysis["enabled"] is False
        assert live.solver_checks == pooled.solver_checks > 0
        assert live.verdict == pooled.verdict == "VERIFIED"

    def test_step_limit(self):
        outcome = IncrementalVerifier(
            minimal_zone(), options=VerifyOptions(max_steps=10)
        ).verify_current()
        assert outcome.result.verdict == "UNKNOWN"

    def test_depth(self):
        zone = minimal_zone()
        outcome = IncrementalVerifier(
            zone, options=VerifyOptions(depth=len(zone.origin))
        ).verify_current()
        assert outcome.reuse.recomputed_keys == ("full",)


def assert_replays(zone, version, cache_dir):
    """Verify twice through a fresh disk cache each time: the second run
    must replay the first exactly, with no solver check and no compile."""
    first = verify_cached(zone, version, VerifyOptions(),
                          SummaryCache(cache_dir=cache_dir))
    clear_ir_cache()
    second = verify_cached(zone, version, VerifyOptions(),
                           SummaryCache(cache_dir=cache_dir))
    assert not _IR_CACHE  # the hit compiled nothing
    assert second.solver_checks == 0
    assert second.verdict == first.verdict
    assert second.verified == first.verified
    assert second.spurious_mismatches == first.spurious_mismatches
    assert second.bugs == first.bugs  # stored (discovery) order
    assert [(l.name, l.route) for l in second.layers] == [
        (l.name, "cache") for l in first.layers
    ]
    return first


class TestSessionCache:
    @pytest.mark.parametrize("version", sorted(ENGINE_VERSIONS))
    def test_replay_identity(self, version, tmp_path):
        assert_replays(minimal_zone(), version, tmp_path)

    def test_replay_identity_on_evaluation_zone(self, tmp_path):
        first = assert_replays(evaluation_zone(), "v1.0", tmp_path)
        assert first.bugs

    def test_only_partition_entries_are_written(self, zone, tmp_path):
        verify_engine(zone, "verified", cache=SummaryCache(cache_dir=tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["partition"]

    def test_unknown_is_never_stored(self, zone):
        cache = SummaryCache(memory_only=True)
        result = verify_cached(zone, "verified", VerifyOptions(fuel=10), cache)
        assert result.verdict == "UNKNOWN"
        assert cache.puts == 0

    def test_shares_the_full_unit_record(self, zone):
        """An unsplittable plan is one ``full`` unit; its verdict is the
        record a cached monolithic verify at the same depth replays."""
        depth = len(zone.origin)
        cache = SummaryCache(memory_only=True)
        outcome = IncrementalVerifier(
            zone, "verified", cache=cache, options=VerifyOptions(depth=depth)
        ).verify_current()
        assert outcome.reuse.recomputed_keys == ("full",)
        result = verify_engine(
            zone, "verified", options=VerifyOptions(depth=depth), cache=cache
        )
        assert result.solver_checks == 0
        assert {l.route for l in result.layers} == {"cache"}
        assert result.verdict == outcome.result.verdict

    def test_restrict_narrows_the_proof(self, zone):
        from repro.incremental.delta import Partition

        session = VerificationSession(zone, "verified")
        session.restrict(Partition("sub:www").preconditions(session.query_encoding))
        restricted = session.verify()
        full = verify_engine(zone, "verified")
        assert restricted.verified
        assert 0 < restricted.solver_checks < full.solver_checks
