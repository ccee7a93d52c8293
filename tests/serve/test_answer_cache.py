"""The answer memo on the serving snapshot: a repeated question is served
from the snapshot it was answered on, byte-identical to the full path."""

import struct
import sys
import threading

import pytest

from repro.dns.message import Query
from repro.dns.name import DnsName
from repro.dns.rtypes import RCode, RRType
from repro.dns.wire import (
    build_query,
    build_response,
    parse_query,
    parse_response,
)
from repro.dns.zonefile import parse_zone_text
from repro.engine import control
from repro.serve import SelfChecker, ZoneServer
from repro.serve import degrade
from repro.serve import server as server_mod
from repro.testing.differential import enumerate_queries
from repro.zonegen import evaluation_zone
from repro.zonegen.corpus import EVALUATION_ZONE_TEXT

CLIENT = "198.51.100.7"


def query_wire(text="www.example.com.", qtype=RRType.A, txid=0x1111):
    return build_query(txid, Query(DnsName.from_text(text), qtype))


def make_server(version="verified", **kwargs):
    kwargs.setdefault("status_port", None)
    return ZoneServer(evaluation_zone(), version, **kwargs)


def pinned_server(level, **kwargs):
    """A server whose overload controller stays at ``level`` until the
    test moves it (the huge interval disables the per-query tick)."""
    ctrl = degrade.OverloadController(100.0, interval=1e9)
    ctrl.level = level
    return make_server(degrade=ctrl, **kwargs)


class TestHitEqualsMiss:
    @pytest.mark.parametrize("version", sorted(control.ENGINE_VERSIONS))
    def test_every_enumerated_query_on_every_version(self, version):
        zone = evaluation_zone()
        cached = make_server(version)
        fresh = make_server(version)
        for query in enumerate_queries(zone):
            miss = cached.handle_packet(build_query(0x1111, query), CLIENT)
            hit = cached.handle_packet(build_query(0x2222, query), CLIENT)
            assert hit[:2] == b"\x22\x22", query.to_text()
            assert hit[2:] == miss[2:], query.to_text()
            assert fresh.handle_packet(build_query(0x2222, query),
                                       CLIENT) == hit, query.to_text()
        # Every question was asked twice on one server, once on the other.
        failed = cached.metrics.engine_crashes
        assert cached.metrics.answer_cache_hits == len(
            cached.snapshot.answers)
        assert fresh.metrics.answer_cache_hits == 0
        assert fresh.metrics.engine_crashes * 2 == failed

    def test_case_and_flag_variants_are_distinct_keys(self):
        server = make_server()
        lower = query_wire("www.example.com.")
        upper = lower.replace(b"\x03www", b"\x03WwW")
        rd = bytearray(lower)
        rd[2] ^= 0x01  # RD flipped: a different packet, a different key
        for wire in (lower, upper, bytes(rd)):
            first = server.handle_packet(wire, CLIENT)
            assert server.handle_packet(wire, CLIENT) == first
        assert len(server.snapshot.answers) == 3
        assert server.metrics.answer_cache_hits == 3


class TestNeverCached:
    def test_engine_crash_is_recounted_on_every_repeat(self):
        # `dev` panics on an empty non-terminal under the wildcard.
        server = make_server("dev")
        wire = query_wire("ent.wild.example.com.")
        for repeat in range(1, 4):
            reply = server.handle_packet(wire, CLIENT)
            assert parse_response(reply)[1].rcode is RCode.SERVFAIL
            assert server.metrics.engine_crashes == repeat
        assert server.metrics.answer_cache_hits == 0
        assert wire[2:] not in server.snapshot.answers

    def test_formerr_and_qr_packets_never_enter(self):
        server = make_server()
        truncated_name = struct.pack("!HHHHHH", 0x4242, 0, 1, 0, 0, 0) + b"\xff"
        no_question = struct.pack("!HHHHHH", 0x4243, 0, 0, 0, 0, 0)
        bad_qtype = bytearray(query_wire())
        bad_qtype[-4:-2] = struct.pack("!H", 0xFFF0)
        reflected = bytearray(query_wire())
        reflected[2] |= 0x80  # QR=1
        for _ in range(3):
            for wire in (truncated_name, no_question, bytes(bad_qtype)):
                reply = server.handle_packet(wire, CLIENT)
                assert reply[3] & 0xF == int(RCode.FORMERR)
            assert server.handle_packet(bytes(reflected), CLIENT) == b""
        assert server.snapshot.answers == {}
        assert server.metrics.formerr == 9
        assert server.metrics.dropped_malformed == 3
        assert server.metrics.answer_cache_hits == 0

    def test_memo_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(server_mod, "ANSWER_CACHE_CAP", 8)
        server = make_server()
        for i in range(50):
            server.handle_packet(query_wire(f"h{i}.example.com."), CLIENT)
            assert len(server.snapshot.answers) <= 8
        # A full memo is cleared, then refilled by later misses.
        assert len(server.snapshot.answers) == (50 - 1) % 8 + 1


class TestPublish:
    def test_new_snapshot_answers_the_rewritten_address(self):
        server = make_server()
        wire = query_wire()
        server.handle_packet(wire, CLIENT)
        stale = server.handle_packet(wire, CLIENT)
        assert server.metrics.answer_cache_hits == 1
        old_snapshot = server.snapshot
        result = server.publish_sync(parse_zone_text(
            EVALUATION_ZONE_TEXT.replace("192.0.2.10", "192.0.2.123")))
        assert result.accepted, result.describe()
        assert server.snapshot.answers == {}  # the memo died with its zone
        fresh = server.handle_packet(wire, CLIENT)
        _, response = parse_response(fresh)
        assert [r.rdata.to_text() for r in response.answer] == ["192.0.2.123"]
        assert fresh != stale
        assert server.metrics.answer_cache_hits == 1
        assert wire[2:] in old_snapshot.answers  # untouched, unreachable


class TestLadderAndLimiter:
    def test_hit_is_answered_in_full_at_truncate(self):
        # The rungs shed engine work; a memo hit does none, so it keeps
        # its full answer. A question the memo lacks is still truncated.
        server = pinned_server(degrade.NORMAL)
        wire = query_wire()
        full = server.handle_packet(wire, CLIENT, "udp")
        server.degrade.level = degrade.TRUNCATE
        assert server.handle_packet(wire, CLIENT, "udp") == full
        assert parse_response(full)[1].answer
        assert server.metrics.answer_cache_hits == 1
        assert server.metrics.truncated == 0
        miss = query_wire("missing.example.com.")
        reply = server.handle_packet(miss, CLIENT, "udp")
        assert parse_response(reply)[1].tc is True
        assert miss[2:] not in server.snapshot.answers
        assert server.metrics.truncated == 1
        # TCP is never truncated: the miss resolves and is memoised.
        tcp = server.handle_packet(miss, CLIENT, "tcp")
        assert parse_response(tcp)[1].rcode is RCode.NXDOMAIN
        assert miss[2:] in server.snapshot.answers
        assert server.metrics.conservation()["conserved"]

    def test_hit_is_answered_in_full_at_servfail_shed(self):
        server = pinned_server(degrade.NORMAL)
        shed = next(c for c in (f"198.51.100.{i}" for i in range(256))
                    if server.degrade.should_shed(c))
        wire = query_wire()
        full = server.handle_packet(wire, shed)
        server.degrade.level = degrade.SERVFAIL_SHED
        assert server.handle_packet(wire, shed) == full
        assert server.metrics.answer_cache_hits == 1
        assert server.metrics.shed_servfail == 0
        miss = query_wire("missing.example.com.")
        reply = server.handle_packet(miss, shed)
        assert len(reply) == 12 and reply[3] & 0xF == int(RCode.SERVFAIL)
        assert miss[2:] not in server.snapshot.answers
        assert server.metrics.shed_servfail == 1
        ledger = server.metrics.conservation()
        assert ledger["conserved"], ledger
        assert ledger["received"] == 3

    def test_cached_question_is_dropped_by_the_rate_limiter(self):
        server = make_server(rate_limit=1.0, rate_burst=1.0)
        wire = query_wire()
        assert server.handle_packet(wire, CLIENT)
        assert wire[2:] in server.snapshot.answers
        assert server.handle_packet(wire, CLIENT) == b""
        assert server.metrics.dropped_ratelimit == 1
        assert server.metrics.answer_cache_hits == 0
        # Another client has its own bucket and gets the memoised answer.
        assert server.handle_packet(wire, "198.51.100.8")
        assert server.metrics.answer_cache_hits == 1


class TestMetrics:
    def test_conservation_across_hits_and_misses(self):
        server = make_server("dev", selfcheck_every=3)
        packets = [
            query_wire(),
            query_wire("missing.example.com."),
            query_wire("ent.wild.example.com."),  # dev crashes: SERVFAIL
            query_wire("a.b.wild.example.com.", RRType.MX),
            b"\x01\x02",  # short: dropped
            struct.pack("!HHHHHH", 9, 0, 1, 0, 0, 0) + b"\xff",  # FORMERR
        ]
        for round_no in range(4):
            for i, wire in enumerate(packets):
                server.handle_packet(wire, CLIENT,
                                     "tcp" if (round_no + i) % 2 else "udp")
        ledger = server.metrics.conservation()
        assert ledger["conserved"], ledger
        assert ledger["received"] == 24
        assert server.metrics.answer_cache_hits == 9  # 3 cacheable x 3
        status = server.metrics.as_dict()
        assert status["answer_cache_hits"] == 9
        assert status["responses"] == 20


class TestSelfCheckOracle:
    def test_corrupted_entry_is_exactly_one_cache_divergence(self):
        server = make_server(selfcheck_every=1)
        target = query_wire()
        other = query_wire("missing.example.com.")
        for wire in (target, target, other, other):
            server.handle_packet(wire, CLIENT)
        snapshot = server.snapshot
        rcode, tail = snapshot.answers[target[2:]]
        _, query = parse_query(target)
        assert tail == build_response(0, snapshot.resolve(query))[2:]
        snapshot.answers[target[2:]] = (rcode,
                                        tail[:-1] + bytes([tail[-1] ^ 1]))
        report = server.selfcheck.run(snapshot)
        assert report["divergences"] == 1
        assert report["spec_divergences"] == 0
        assert "cached answer diverges" in report["details"][0]
        records = server.selfcheck.export_divergences()
        assert [r["kind"] for r in records] == ["cache-divergence"]
        assert records[0]["query"]["qname"] == "www.example.com."

    def test_clean_memo_reports_nothing(self):
        checker = SelfChecker(every=1)
        server = make_server("v1.0")
        server.selfcheck = checker
        for query in enumerate_queries(evaluation_zone())[:40]:
            wire = build_query(7, query)
            server.handle_packet(wire, CLIENT)
            server.handle_packet(wire, CLIENT)
        checker.run(server.snapshot)
        kinds = {r["kind"] for r in checker.export_divergences()}
        assert "cache-divergence" not in kinds

    def test_checker_thread_reads_while_the_query_path_clears(
            self, monkeypatch):
        # The self-check runs off-loop and reads the memo the loop writes
        # and clears. A tiny cap forces a clear every few packets.
        monkeypatch.setattr(server_mod, "ANSWER_CACHE_CAP", 4)
        server = make_server(selfcheck_every=1)
        wires = [build_query(3, q)
                 for q in enumerate_queries(evaluation_zone())[:24]]
        stop = threading.Event()
        reports = []

        def check():
            while not stop.is_set():
                reports.append(server.selfcheck.run(server.snapshot))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        checker = threading.Thread(target=check)
        checker.start()
        try:
            for _ in range(20):
                for wire in wires:
                    server.handle_packet(wire, CLIENT)
        finally:
            stop.set()
            checker.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not checker.is_alive()
        assert reports
        assert sum(r["divergences"] for r in reports) == 0
        assert server.metrics.conservation()["conserved"]

