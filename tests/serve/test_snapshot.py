"""Serving snapshots and fresh-label query encoding."""

import pytest

from repro.dns.interner import LABEL_SPACING, LabelInterner
from repro.dns.message import Query
from repro.dns.name import DnsName
from repro.dns.rtypes import RCode, RRType
from repro.serve.snapshot import (
    ResolveError,
    build_snapshot,
    encode_query_name,
)
from repro.zonegen import evaluation_zone, minimal_zone


def name(text):
    return DnsName.from_text(text)


class TestEncodeQueryName:
    def test_known_labels_use_interned_codes(self):
        interner = LabelInterner(["com", "example", "www"])
        codes, overlay = encode_query_name(interner, name("www.example.com."))
        assert codes == [
            interner.code("com"), interner.code("example"), interner.code("www")
        ]
        assert overlay == {}

    def test_distinct_unknown_labels_get_distinct_codes(self):
        # The old example mapped every unknown label to interner.max_code,
        # so a.b.example.com collapsed into x.x.example.com.
        interner = LabelInterner(["com", "example"])
        codes, overlay = encode_query_name(interner, name("a.b.example.com."))
        unknown = codes[2:]
        assert len(set(unknown)) == 2
        assert {overlay[c] for c in unknown} == {"a", "b"}

    def test_fresh_codes_order_consistent_with_labels(self):
        interner = LabelInterner(["com", "example", "mm"])
        codes, _ = encode_query_name(interner, name("aa.zz.example.com."))
        code_zz, code_aa = codes[2], codes[3]
        # aa < mm < zz byte-wise, so code(aa) < code(mm) < code(zz).
        assert code_aa < interner.code("mm") < code_zz
        # Both stay inside the decodable range and off interned codes.
        for code in (code_aa, code_zz):
            assert interner.min_code < code <= interner.max_code
            assert interner.decode(code) is not None

    def test_same_label_twice_shares_one_code(self):
        interner = LabelInterner(["com", "example"])
        codes, overlay = encode_query_name(interner, name("zz.zz.example.com."))
        assert codes[2] == codes[3]
        assert len(overlay) == 1

    def test_case_insensitive(self):
        interner = LabelInterner(["com", "example", "www"])
        codes, _ = encode_query_name(interner, name("WWW.Example.COM."))
        assert codes == [
            interner.code("com"), interner.code("example"), interner.code("www")
        ]

    def test_many_unknowns_in_one_gap_stay_in_gap(self):
        interner = LabelInterner(["com", "zz"])
        labels = [f"m{i:03d}" for i in range(50)]
        qname = DnsName(tuple(labels[:20]) + ("com",))
        codes, overlay = encode_query_name(interner, qname)
        fresh = codes[1:]
        assert len(set(fresh)) == 20
        # All land strictly between code("com") and code("zz").
        assert all(
            interner.code("com") < c < interner.code("zz") for c in fresh
        )
        # Gap arithmetic: same gap, contiguous mid-gap codes.
        assert max(fresh) - min(fresh) < LABEL_SPACING // 2


class TestServingSnapshot:
    def test_resolve_positive(self):
        snapshot = build_snapshot(evaluation_zone(), "verified")
        response = snapshot.resolve(Query(name("www.example.com."), RRType.A))
        assert response.rcode is RCode.NOERROR
        assert len(response.answer) == 1

    def test_resolve_nxdomain(self):
        snapshot = build_snapshot(evaluation_zone(), "verified")
        response = snapshot.resolve(Query(name("nope.example.com."), RRType.A))
        assert response.rcode is RCode.NXDOMAIN

    def test_wildcard_answer_echoes_query_name(self):
        # Multi-label wildcard synthesis: the answer's owner must be the
        # qname the client sent, including labels the zone never interned.
        snapshot = build_snapshot(evaluation_zone(), "verified")
        response = snapshot.resolve(
            Query(name("a.b.wild.example.com."), RRType.A)
        )
        assert response.rcode is RCode.NOERROR
        assert response.answer[0].rname == name("a.b.wild.example.com.")

    def test_buggy_engine_crash_raises_resolve_error(self):
        # The dev version crashes on ENT queries (Table 2).
        snapshot = build_snapshot(evaluation_zone(), "dev")
        with pytest.raises(ResolveError) as info:
            snapshot.resolve(Query(name("ent.wild.example.com."), RRType.A))
        assert info.value.crash is not None

    def test_digest_tracks_zone_content(self):
        s1 = build_snapshot(minimal_zone(), "verified")
        s2 = build_snapshot(evaluation_zone(), "verified")
        assert s1.digest != s2.digest
        assert build_snapshot(minimal_zone(), "verified").digest == s1.digest

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            build_snapshot(minimal_zone(), "v99.9")

    def test_describe(self):
        snapshot = build_snapshot(minimal_zone(), "verified", sequence=3)
        text = snapshot.describe()
        assert "#3" in text and "example.com." in text


class _AnswerRewriter:
    """An engine module wrapper that lets ``rewrite(resp)`` tamper with
    every answer the real engine builds to an A query."""

    def __init__(self, module, rewrite):
        self.module = module
        self.rewrite = rewrite

    def resolve(self, tree, codes, qtype, resp):
        self.module.resolve(tree, codes, qtype, resp)
        if qtype == int(RRType.A):
            self.rewrite(resp)


def _unknown_rdata_id(resp):
    resp.answer[0].rdata_id = 10 ** 6


def _type_rdata_mismatch(resp):
    resp.answer[0].rtype = int(RRType.MX)  # an A record's rdata


def _rcode_outside_rcode(resp):
    resp.rcode = 99


def _owner_of_33_labels(resp):
    resp.answer[0].rname = resp.answer[0].rname[-1:] * 33


class TestDecodeFailuresAreClassified:
    """Every way an engine answer can fail to decode is a ResolveError:
    the server answers SERVFAIL and counts a decode failure, and the
    self-checker's replay sees the same error."""

    QUERY = Query(name("www.example.com."), RRType.A)

    def tampered(self, rewrite):
        import dataclasses

        from repro.serve import ZoneServer

        server = ZoneServer(evaluation_zone(), status_port=None)
        snapshot = server.gate.snapshot
        server.gate.snapshot = dataclasses.replace(
            snapshot, module=_AnswerRewriter(snapshot.module, rewrite))
        return server

    @pytest.mark.parametrize("rewrite", [
        _unknown_rdata_id,
        _type_rdata_mismatch,
        _rcode_outside_rcode,
        _owner_of_33_labels,
    ])
    def test_undecodable_answer_is_servfail_and_counted(self, rewrite):
        from repro.dns.wire import build_query, parse_response

        server = self.tampered(rewrite)
        with pytest.raises(ResolveError, match="did not decode"):
            server.gate.snapshot.resolve(self.QUERY)
        reply = server.handle_packet(build_query(7, self.QUERY), "198.51.100.7")
        txid, response = parse_response(reply)
        assert txid == 7
        assert response.rcode is RCode.SERVFAIL
        assert server.metrics.decode_failures == 1
        assert server.metrics.engine_crashes == 0

    def test_undecodable_answer_does_not_end_a_udp_batch(self):
        from repro.dns.wire import build_query, parse_response
        from repro.testing.faultdrill import ScriptedUdpSocket

        server = self.tampered(_unknown_rdata_id)
        good = Query(name("example.com."), RRType.SOA)
        sock = ScriptedUdpSocket([
            (build_query(1, self.QUERY), "198.51.100.7"),
            (build_query(2, good), "198.51.100.7"),
        ])
        server.read_datagrams(sock)
        replies = [parse_response(data) for data, _ in sock.sent]
        assert [(txid, r.rcode) for txid, r in replies] == [
            (1, RCode.SERVFAIL), (2, RCode.NOERROR)]
        assert server.metrics.decode_failures == 1
