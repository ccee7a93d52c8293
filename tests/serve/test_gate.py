"""The verify-then-publish gate: VERIFIED swaps, everything else holds."""

import pytest

from repro.dns.zonefile import parse_zone_text
from repro.resilience import verdicts
from repro.serve import PublishGate, build_snapshot
from repro.zonegen.corpus import EVALUATION_ZONE_TEXT, MINIMAL_ZONE_TEXT

#: Adding a wildcard with an MX triggers v2.0's extraneous-glue bug
#: (Table 2), so the same delta is benign for `verified` and a BUG for
#: v2.0 — exactly the property the gate must distinguish.
BUGGY_DELTA_TEXT = MINIMAL_ZONE_TEXT + (
    "*.wild IN A 192.0.2.20\n"
    "*.wild IN MX 10 ns1.example.com.\n"
)

BENIGN_DELTA_TEXT = MINIMAL_ZONE_TEXT.replace("192.0.2.10", "192.0.2.77")


def make_gate(version="verified"):
    zone = parse_zone_text(MINIMAL_ZONE_TEXT)
    return PublishGate(build_snapshot(zone, version))


class TestPublish:
    def test_benign_delta_publishes(self):
        gate = make_gate()
        before = gate.snapshot
        result = gate.submit(parse_zone_text(BENIGN_DELTA_TEXT))
        assert result.accepted
        assert result.verdict == verdicts.VERIFIED
        assert gate.snapshot is not before
        assert gate.snapshot.sequence == before.sequence + 1
        assert gate.snapshot.digest == result.snapshot_digest != before.digest
        assert gate.publishes == 1 and gate.holds == 0
        assert gate.alarm is None

    def test_published_zone_serves_new_rdata(self):
        from repro.dns.message import Query
        from repro.dns.name import DnsName
        from repro.dns.rtypes import RRType

        gate = make_gate()
        gate.submit(parse_zone_text(BENIGN_DELTA_TEXT))
        response = gate.snapshot.resolve(
            Query(DnsName.from_text("www.example.com."), RRType.A)
        )
        assert response.answer[0].rdata.to_text() == "192.0.2.77"

    def test_incremental_reuse_makes_second_submit_cheap(self):
        gate = make_gate()
        gate.bootstrap()  # warms the partition cache
        result = gate.submit(parse_zone_text(BENIGN_DELTA_TEXT))
        # An rdata-only delta replays most partitions: far fewer solver
        # checks than the bootstrap run.
        assert result.accepted
        assert result.verify_seconds < 1.0


class TestHold:
    def test_bug_delta_held_old_snapshot_serves(self):
        gate = make_gate("v2.0")
        before = gate.snapshot
        result = gate.submit(parse_zone_text(BUGGY_DELTA_TEXT))
        assert not result.accepted
        assert result.verdict == verdicts.BUG
        assert result.bugs > 0
        # The serving snapshot did not advance.
        assert gate.snapshot is before
        assert result.snapshot_digest == before.digest
        assert gate.holds == 1 and gate.publishes == 0

    def test_hold_latches_alarm_until_clean_publish(self):
        gate = make_gate("v2.0")
        gate.submit(parse_zone_text(BUGGY_DELTA_TEXT))
        assert gate.alarm is not None
        assert gate.alarm["verdict"] == verdicts.BUG
        # Pushing a fix (back to a clean zone) publishes and clears it.
        result = gate.submit(parse_zone_text(BENIGN_DELTA_TEXT))
        assert result.accepted
        assert gate.alarm is None
        assert gate.snapshot.sequence == 1

    def test_same_delta_verdict_depends_on_version(self):
        # The delta is the property under check, per engine version.
        assert make_gate("verified").submit(
            parse_zone_text(BUGGY_DELTA_TEXT)).accepted
        assert not make_gate("v2.0").submit(
            parse_zone_text(BUGGY_DELTA_TEXT)).accepted

    def test_verifier_error_becomes_typed_hold(self):
        gate = make_gate()

        def boom(_zone):
            raise OSError("disk on fire")

        gate._verifier.diff_to = boom
        result = gate.submit(parse_zone_text(BENIGN_DELTA_TEXT))
        assert not result.accepted
        assert result.verdict == verdicts.ERROR
        assert result.reason == verdicts.ERR_IO
        assert "disk on fire" in result.error
        assert gate.errors == 1


class TestConcurrency:
    def test_racing_submissions_serialize(self):
        # API publishes and the file reloader submit from different worker
        # threads; the gate's lock serializes them, so counters, sequence
        # and history stay consistent however the race lands.
        import threading

        gate = make_gate()
        gate.bootstrap()
        deltas = [
            parse_zone_text(MINIMAL_ZONE_TEXT.replace(
                "192.0.2.10", f"192.0.2.{50 + i}"))
            for i in range(4)
        ]
        threads = [threading.Thread(target=gate.submit, args=(delta,))
                   for delta in deltas]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gate.publishes + gate.holds == len(deltas)
        assert gate.snapshot.sequence == gate.publishes
        assert len(gate.history) == len(deltas) + 1  # + the bootstrap


class TestCoalescing:
    def test_superseded_submission_is_dropped_unverified(self):
        # Hold the gate lock so two coalescing submissions queue behind
        # an "in-flight verification"; only the newest content should
        # ever run the prover.
        import threading

        gate = make_gate()
        results = {}

        def submit(tag, text):
            results[tag] = gate.submit_coalescing(
                parse_zone_text(text), source=tag)

        with gate._lock:  # the pretend in-flight verification
            first = threading.Thread(
                target=submit,
                args=("stale", MINIMAL_ZONE_TEXT.replace(
                    "192.0.2.10", "192.0.2.51")))
            first.start()
            # Wait until the stale delta is actually queued before
            # superseding it, or the race could resolve either way.
            while gate._queued is None:
                pass
            second = threading.Thread(
                target=submit,
                args=("fresh", MINIMAL_ZONE_TEXT.replace(
                    "192.0.2.10", "192.0.2.52")))
            second.start()
            while gate.publishes_coalesced == 0:
                pass
        first.join()
        second.join()
        # Exactly one verification ran, for the newest content; the
        # superseded caller got None back.
        assert gate.publishes_coalesced == 1
        assert gate.publishes == 1
        coalesced = [tag for tag, result in results.items()
                     if result is None]
        assert len(coalesced) == 1
        winner = next(result for result in results.values()
                      if result is not None)
        assert winner.accepted

        from repro.dns.message import Query
        from repro.dns.name import DnsName
        from repro.dns.rtypes import RRType

        served = gate.snapshot.resolve(
            Query(DnsName.from_text("www.example.com."), RRType.A)
        )
        assert served.answer[0].rdata.to_text() in ("192.0.2.51",
                                                    "192.0.2.52")

    def test_uncontended_coalescing_submit_just_publishes(self):
        gate = make_gate()
        result = gate.submit_coalescing(parse_zone_text(BENIGN_DELTA_TEXT))
        assert result is not None and result.accepted
        assert gate.publishes_coalesced == 0


class TestBootstrap:
    def test_clean_bootstrap_no_swap_no_alarm(self):
        gate = make_gate()
        before = gate.snapshot
        result = gate.bootstrap()
        assert result.accepted
        assert gate.snapshot is before  # already serving; nothing to swap
        assert gate.publishes == 0
        assert gate.alarm is None

    def test_buggy_bootstrap_alarms_but_keeps_serving(self):
        # v2.0 on a wildcard-MX zone is unverifiable from the start.
        zone = parse_zone_text(BUGGY_DELTA_TEXT)
        gate = PublishGate(build_snapshot(zone, "v2.0"))
        result = gate.bootstrap()
        assert not result.accepted
        assert gate.alarm is not None and gate.alarm["bootstrap"]


class TestHistory:
    def test_history_records_every_submission(self):
        gate = make_gate()
        gate.submit(parse_zone_text(BENIGN_DELTA_TEXT))
        gate.submit(parse_zone_text(MINIMAL_ZONE_TEXT))
        assert len(gate.history) == 2
        assert all(entry["verdict"] == verdicts.VERIFIED
                   for entry in gate.history)

    def test_health_payload(self):
        gate = make_gate("v2.0")
        gate.submit(parse_zone_text(BUGGY_DELTA_TEXT))
        health = gate.health()
        assert health["holds"] == 1
        assert health["last_verdict"] == verdicts.BUG
        assert health["alarm"]["bugs"] > 0
        assert health["serving_digest"] == gate.snapshot.digest


class TestEngineInvisibleEdits:
    """On the evaluation zone, an edit the engine cannot see (an address
    rewrite, a serial bump) publishes without re-verifying any unit; an
    edit it can see still re-verifies the units that observe it."""

    @pytest.fixture(scope="class")
    def cache(self):
        from repro.incremental.cache import SummaryCache

        cache = SummaryCache(memory_only=True)
        PublishGate(build_snapshot(parse_zone_text(EVALUATION_ZONE_TEXT),
                                   "verified"), cache=cache).bootstrap()
        return cache

    def submit(self, cache, text):
        gate = PublishGate(build_snapshot(parse_zone_text(EVALUATION_ZONE_TEXT),
                                          "verified"), cache=cache)
        assert gate.bootstrap().units_recomputed == 0  # the warm cache replays
        result = gate.submit(parse_zone_text(text))
        assert result.accepted, result.describe()
        assert gate.history[-1]["units_recomputed"] == result.units_recomputed
        return gate, result

    def test_address_rewrite_recomputes_nothing(self, cache):
        from repro.dns.message import Query
        from repro.dns.name import DnsName
        from repro.dns.rtypes import RRType

        gate, result = self.submit(
            cache, EVALUATION_ZONE_TEXT.replace("192.0.2.10", "192.0.2.123"))
        assert result.units_recomputed == 0
        assert result.to_json()["units_recomputed"] == 0
        response = gate.snapshot.resolve(
            Query(DnsName.from_text("www.example.com."), RRType.A))
        assert [r.rdata.to_text() for r in response.answer] == ["192.0.2.123"]

    def test_serial_bump_recomputes_nothing(self, cache):
        bumped = EVALUATION_ZONE_TEXT.replace(
            "admin.example.com. 1 3600", "admin.example.com. 2 3600")
        assert bumped != EVALUATION_ZONE_TEXT
        _, result = self.submit(cache, bumped)
        assert result.units_recomputed == 0

    def test_engine_visible_edit_recomputes_www(self, cache):
        # sub:www, and sub:alias, whose CNAME points at www.
        _, result = self.submit(cache,
                                EVALUATION_ZONE_TEXT + "www IN A 192.0.2.11\n")
        assert result.units_recomputed == 2
