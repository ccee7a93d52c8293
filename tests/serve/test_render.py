"""The miss path renders engine answers straight to wire bytes from the
snapshot's fragment tables; the decode + ``build_response`` slow path is
its oracle, byte for byte and failure class for failure class."""

import dataclasses
import random

import pytest

from repro.dns.message import Query
from repro.dns.name import DnsName
from repro.dns.rdata import ARdata
from repro.dns.rtypes import QUERYABLE_TYPES, RCode, RRType
from repro.dns.wire import (
    WireError,
    build_error_response,
    build_query,
    build_response,
    parse_response,
)
from repro.dns.zonefile import parse_zone_text
from repro.engine import control
from repro.engine.gopy.structs import RR
from repro.serve import ZoneServer
from repro.serve.snapshot import ResolveError, ServingSnapshot
from repro.testing.differential import enumerate_queries
from repro.zonegen import evaluation_zone, tld_zone
from repro.zonegen.corpus import EVALUATION_ZONE_TEXT

CLIENT = "198.51.100.7"
VERSIONS = sorted(control.ENGINE_VERSIONS)


def slow_reply(snapshot, txid, query):
    """The reply the server built before fragments: decode, then
    ``build_response``; SERVFAIL with the question on any failure."""
    try:
        return build_response(txid, snapshot.resolve(query))
    except (ResolveError, WireError):
        return build_error_response(txid, RCode.SERVFAIL, query)


def wide_queries(zone, count, seed=7):
    """Existing owners, fresh labels under the apex (the apex wildcard
    echoes them) and one or two fresh labels under existing names (a
    per-name wildcard echoes those), each with a random type."""
    rng = random.Random(seed)
    names = sorted(zone.names())

    def fresh():
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
                       for _ in range(rng.randint(3, 9)))

    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.4:
            name = rng.choice(names)
        elif roll < 0.6:
            name = DnsName((fresh(),)).concat(zone.origin)
        else:
            parent = rng.choice(names)
            if parent.is_wildcard:
                parent = parent.wildcard_parent()
            labels = tuple(fresh() for _ in range(rng.randint(1, 2)))
            name = DnsName(labels).concat(parent)
        out.append(Query(name, rng.choice(QUERYABLE_TYPES)))
    return out


def assert_fast_equals_slow(zone, version, queries):
    server = ZoneServer(zone, version, status_port=None)
    snapshot = server.snapshot
    rendered = 0
    for query in queries:
        reply = server.handle_packet(build_query(0x5A5A, query), CLIENT)
        assert reply == slow_reply(snapshot, 0x5A5A, query), query.to_text()
        try:
            go_resp, overlay = snapshot.run_engine(query)
        except ResolveError:
            continue
        rendered += snapshot.render(query, go_resp, overlay) is not None
    # Every answer the engine gave rendered from fragments: the slow path
    # was a fallback, not the one that produced the replies above.
    assert rendered == len(queries) - server.metrics.engine_crashes
    return server


class TestFastEqualsSlow:
    @pytest.mark.parametrize("version", VERSIONS)
    def test_every_enumerated_query(self, version):
        zone = evaluation_zone()
        assert_fast_equals_slow(zone, version, enumerate_queries(zone))

    @pytest.mark.parametrize("version", VERSIONS)
    def test_tld_zone_fresh_labels_and_echoes(self, version):
        zone = tld_zone(2000)
        queries = wide_queries(zone, 2000)
        server = assert_fast_equals_slow(zone, version, queries)
        # The sample exercises the overlay: wildcard answers whose owner
        # is a label the zone never interned.
        interner = server.snapshot.encoder.interner
        echoes = 0
        for query in queries[:400]:
            reply = server.handle_packet(build_query(1, query), CLIENT)
            _, response = parse_response(reply)
            echoes += any(not interner.has(r.rname.labels[0])
                          for r in response.answer)
        assert echoes > 0

    def test_fragments_are_filled_lazily(self):
        server = ZoneServer(evaluation_zone(), status_port=None)
        snapshot = server.snapshot
        assert snapshot.label_fragments == {}
        assert snapshot.record_fragments == {}
        server.handle_packet(build_query(1, Query(
            DnsName.from_text("www.example.com."), RRType.A)), CLIENT)
        assert len(snapshot.label_fragments) == 3  # www, example, com
        assert snapshot.record_fragments


class CountingEngine:
    """An engine module wrapper that counts runs and, for one question,
    swaps the answer for an RR whose owner code no interner decodes."""

    def __init__(self, module, undecodable):
        self.module = module
        self.undecodable = undecodable
        self.runs = 0

    def resolve(self, tree, codes, qtype, resp):
        self.runs += 1
        self.module.resolve(tree, codes, qtype, resp)
        if (codes, qtype) == self.undecodable and resp.answer:
            good = resp.answer[0]
            resp.answer = [RR(rname=[0], rtype=good.rtype,
                              rdata_id=good.rdata_id, rdata_name=[])]


def counting_server(zone, undecodable_query):
    server = ZoneServer(zone, "dev", status_port=None)
    snapshot = server.snapshot
    codes = [snapshot.encoder.interner.code(label)
             for label in undecodable_query.qname.reversed_labels]
    engine = CountingEngine(snapshot.module,
                            (codes, int(undecodable_query.qtype)))
    server.gate.snapshot = dataclasses.replace(snapshot, module=engine)
    return server, engine


class TestFailureClassesUnchanged:
    def test_failure_counts_match_the_slow_path(self, monkeypatch):
        zone = parse_zone_text(EVALUATION_ZONE_TEXT
                               + "old IN DNAME example.net.\n")
        undecodable = Query(DnsName.from_text("www.example.com."), RRType.A)
        # The DNAME at `old` answers but does not encode.
        packets = [build_query(i, q)
                   for i, q in enumerate(enumerate_queries(zone))]
        fast, engine = counting_server(zone, undecodable)
        fast_replies = [fast.handle_packet(wire, CLIENT)
                        for wire in packets + packets]
        # The engine ran once per miss, even where the reply fell back.
        misses = 2 * len(packets) - fast.metrics.answer_cache_hits
        assert engine.runs == misses

        monkeypatch.setattr(ServingSnapshot, "render",
                            lambda self, query, go_resp, overlay: None)
        slow, _ = counting_server(zone, undecodable)
        replies = [slow.handle_packet(wire, CLIENT)
                   for wire in packets + packets]
        fields = ("engine_crashes", "decode_failures", "encode_failures",
                  "servfail", "noerror", "nxdomain", "answer_cache_hits")
        counts = {f: getattr(fast.metrics, f) for f in fields}
        assert counts == {f: getattr(slow.metrics, f) for f in fields}
        assert counts["engine_crashes"] > 0
        assert counts["decode_failures"] == 2
        assert counts["encode_failures"] > 0
        assert fast_replies == replies


class TestSelfCheckCoversFragments:
    def test_a_corrupt_fragment_is_a_cache_divergence(self):
        server = ZoneServer(evaluation_zone(), status_port=None,
                            selfcheck_every=1)
        snapshot = server.snapshot
        target = build_query(9, Query(DnsName.from_text("www.example.com."),
                                      RRType.A))
        server.handle_packet(target, CLIENT)  # fills the tables
        snapshot.answers.clear()
        server.selfcheck.run(snapshot)  # drain the clean sample
        key = (int(RRType.A), snapshot.encoder.rdata_id(ARdata("192.0.2.10")))
        tail = snapshot.record_fragments[key]
        snapshot.record_fragments[key] = tail[:-1] + bytes([tail[-1] ^ 1])
        reply = server.handle_packet(target, CLIENT)
        _, response = parse_response(reply)
        assert [r.rdata.to_text() for r in response.answer] == ["192.0.2.11"]
        report = server.selfcheck.run(snapshot)
        assert report["divergences"] == 1
        assert "cached answer diverges" in report["details"][0]
        records = server.selfcheck.export_divergences()
        assert [r["kind"] for r in records] == ["cache-divergence"]
        assert records[0]["query"]["qname"] == "www.example.com."
