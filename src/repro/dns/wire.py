"""Minimal DNS wire-format codec (RFC 1035 section 4).

The paper scopes packet encoding/decoding out of the verified engine (its
correctness is handled by conventional testing); this codec exists so the
example applications can serve real packets: it parses a query message and
serialises a :class:`~repro.dns.message.Response`. Uncompressed names only
on output (compression pointers are accepted on input), one question per
message, no EDNS.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.dns.message import Query, Response
from repro.dns.name import DnsName, NameError_
from repro.dns.rdata import (
    AAAARdata,
    ARdata,
    CAARdata,
    CNAMERdata,
    MXRdata,
    NSRdata,
    PTRRdata,
    SOARdata,
    SRVRdata,
    TXTRdata,
)
from repro.dns.records import ResourceRecord
from repro.dns.rtypes import DNSClass, RCode, RRType


class WireError(ValueError):
    """Malformed wire data."""


class NotAQueryError(WireError):
    """The message parses as far as the header but has QR=1: it is a
    response, not a query. RFC 1035 section 7.1 forbids answering it —
    an error reply would itself carry QR=1, so two servers (or one
    server fed its own spoofed address) would reflect errors at each
    other forever. Servers must drop these, not FORMERR them."""


_HEADER = struct.Struct("!HHHHHH")
_TXID = struct.Struct("!H")
_HEADER_TAIL = struct.Struct("!HHHHH")  # the header after its transaction id

#: RFC 1035 section 3.1: a whole name occupies at most 255 octets on the
#: wire (length bytes plus the terminating root byte included).
MAX_NAME_WIRE_LENGTH = 255


def parse_name(wire: bytes, offset: int) -> Tuple[DnsName, int]:
    """Parse a possibly-compressed name; returns (name, next offset)."""
    labels: List[str] = []
    jumps = 0
    next_offset = None
    pos = offset
    wire_length = 0  # decompressed octets, per RFC 1035 3.1
    while True:
        if pos >= len(wire):
            raise WireError("truncated name")
        length = wire[pos]
        if length & 0xC0 == 0xC0:
            if pos + 1 >= len(wire):
                raise WireError("truncated compression pointer")
            target = ((length & 0x3F) << 8) | wire[pos + 1]
            if next_offset is None:
                next_offset = pos + 2
            pos = target
            jumps += 1
            if jumps > 32:
                raise WireError("compression pointer loop")
            continue
        if length & 0xC0:
            # 0x40/0x80 label types are reserved (RFC 1035 4.1.4).
            raise WireError(f"reserved label length byte 0x{length:02x}")
        wire_length += 1 + length
        if wire_length > MAX_NAME_WIRE_LENGTH:
            raise WireError(f"name exceeds {MAX_NAME_WIRE_LENGTH} octets")
        pos += 1
        if length == 0:
            break
        if pos + length > len(wire):
            raise WireError("truncated label")
        labels.append(wire[pos : pos + length].decode("ascii", errors="replace"))
        pos += length
    try:
        name = DnsName(labels)
    except NameError_ as exc:
        raise WireError(str(exc)) from exc
    return name, (next_offset if next_offset is not None else pos)


def parse_query(wire: bytes) -> Tuple[int, Query]:
    """Parse a query message; returns (transaction id, question)."""
    if len(wire) < _HEADER.size:
        raise WireError("short header")
    txid, flags, qdcount, _, _, _ = _HEADER.unpack_from(wire)
    if flags & 0x8000:
        raise NotAQueryError("message is a response, not a query")
    if qdcount != 1:
        raise WireError(f"expected exactly one question, got {qdcount}")
    qname, offset = parse_name(wire, _HEADER.size)
    if offset + 4 > len(wire):
        raise WireError("truncated question")
    qtype_value, qclass = struct.unpack_from("!HH", wire, offset)
    try:
        qtype = RRType(qtype_value)
    except ValueError as exc:
        raise WireError(f"unsupported qtype {qtype_value}") from exc
    if qclass not in (DNSClass.IN, DNSClass.ANY):
        raise WireError(f"unsupported qclass {qclass}")
    return txid, Query(qname, qtype)


def _encode_rdata(record: ResourceRecord) -> bytes:
    rdata = record.rdata
    if isinstance(rdata, ARdata):
        return bytes(int(part) for part in rdata.address.split("."))
    if isinstance(rdata, AAAARdata):
        import ipaddress

        return ipaddress.IPv6Address(rdata.address).packed
    if isinstance(rdata, (NSRdata, PTRRdata)):
        return rdata.names()[0].to_wire()
    if isinstance(rdata, CNAMERdata):
        return rdata.target.to_wire()
    if isinstance(rdata, MXRdata):
        return struct.pack("!H", rdata.preference) + rdata.exchange.to_wire()
    if isinstance(rdata, TXTRdata):
        raw = rdata.text.encode("ascii", errors="replace")[:255]
        return bytes([len(raw)]) + raw
    if isinstance(rdata, SOARdata):
        return (
            rdata.mname.to_wire()
            + rdata.rname.to_wire()
            + struct.pack(
                "!IIIII",
                rdata.serial,
                rdata.refresh,
                rdata.retry,
                rdata.expire,
                rdata.minimum,
            )
        )
    if isinstance(rdata, SRVRdata):
        return (
            struct.pack("!HHH", rdata.priority, rdata.weight, rdata.port)
            + rdata.target.to_wire()
        )
    if isinstance(rdata, CAARdata):
        tag = rdata.tag.encode("ascii")
        return bytes([rdata.flags, len(tag)]) + tag + rdata.value.encode("ascii")
    raise WireError(f"cannot encode rdata of type {record.rtype!r}")


def encode_record_tail(record: ResourceRecord) -> bytes:
    """A record's wire bytes after its owner name: type, class, TTL,
    rdlength and rdata. Output names are never compressed, so these bytes
    depend on the record alone."""
    rdata = _encode_rdata(record)
    return (
        struct.pack("!HHIH", int(record.rtype), int(DNSClass.IN), record.ttl, len(rdata))
        + rdata
    )


def encode_question(query: Query) -> bytes:
    """The question section for ``query``: its name, type and class IN."""
    return query.qname.to_wire() + struct.pack(
        "!HH", int(query.qtype), int(DNSClass.IN)
    )


def response_header_tail(rcode: int, aa: bool, counts: Tuple[int, int, int],
                         tc: bool = False) -> bytes:
    """A one-question response header after its transaction id: flags,
    QDCOUNT 1 and the (answer, authority, additional) ``counts``."""
    flags = 0x8000 | (rcode & 0xF)
    if aa:
        flags |= 0x0400
    if tc:
        flags |= 0x0200
    return _HEADER_TAIL.pack(flags, 1, *counts)


def build_query(txid: int, query: Query) -> bytes:
    """Serialise a query message (for the client side of examples)."""
    return _HEADER.pack(txid, 0x0100, 1, 0, 0, 0) + encode_question(query)


def build_response(txid: int, response: Response) -> bytes:
    """Serialise a response message."""
    sections = (response.answer, response.authority, response.additional)
    out = bytearray(_TXID.pack(txid))
    out += response_header_tail(int(response.rcode), response.aa,
                                tuple(map(len, sections)), response.tc)
    out += encode_question(response.query)
    for section in sections:
        for record in section:
            out += record.rname.to_wire()
            out += encode_record_tail(record)
    return bytes(out)


def build_error_response(txid: int, rcode: RCode, query: Query = None) -> bytes:
    """A minimal error reply for queries that failed before (or during)
    resolution: header-only when the question never parsed (FORMERR), the
    question echoed back when it did (SERVFAIL on engine failure). The
    serving path uses this instead of silently dropping, so clients fail
    fast and the failure is countable on both ends."""
    flags = 0x8000 | (int(rcode) & 0xF)
    if query is None:
        return _HEADER.pack(txid, flags, 0, 0, 0, 0)
    return _HEADER.pack(txid, flags, 1, 0, 0, 0) + encode_question(query)


def build_truncated_response(txid: int, query: Query) -> bytes:
    """An RFC 1035 4.2.1 truncated reply: QR and TC set, the question
    echoed, every answer section empty. An overloaded server sends this
    over UDP instead of resolving — well-behaved clients retry the same
    question over TCP, whose accept queue gives the kernel a back-pressure
    mechanism the datagram socket lacks."""
    flags = 0x8000 | 0x0200  # QR | TC
    return _HEADER.pack(txid, flags, 1, 0, 0, 0) + encode_question(query)


def parse_response(wire: bytes) -> Tuple[int, Response]:
    """Parse a response message (used by tests to round-trip)."""
    if len(wire) < _HEADER.size:
        raise WireError("short header")
    txid, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(wire)
    if not flags & 0x8000:
        raise WireError("message is a query, not a response")
    if qdcount != 1:
        raise WireError("expected one question")
    qname, offset = parse_name(wire, _HEADER.size)
    qtype_value, _ = struct.unpack_from("!HH", wire, offset)
    offset += 4
    query = Query(qname, RRType(qtype_value))

    def read_records(count: int, offset: int):
        records = []
        for _ in range(count):
            rname, offset = parse_name(wire, offset)
            rtype_value, _, ttl, rdlength = struct.unpack_from("!HHIH", wire, offset)
            offset += 10
            rdata_wire = wire[offset : offset + rdlength]
            records.append(
                _decode_record(rname, RRType(rtype_value), ttl, rdata_wire, wire, offset)
            )
            offset += rdlength
        return tuple(records), offset

    answer, offset = read_records(ancount, offset)
    authority, offset = read_records(nscount, offset)
    additional, offset = read_records(arcount, offset)
    return txid, Response(
        query=query,
        rcode=RCode(flags & 0xF),
        aa=bool(flags & 0x0400),
        answer=answer,
        authority=authority,
        additional=additional,
        tc=bool(flags & 0x0200),
    )


def _decode_record(rname, rtype, ttl, rdata_wire, full_wire, rdata_offset):
    if rtype is RRType.A:
        rdata = ARdata(".".join(str(b) for b in rdata_wire))
    elif rtype is RRType.AAAA:
        import ipaddress

        rdata = AAAARdata(str(ipaddress.IPv6Address(rdata_wire)))
    elif rtype in (RRType.NS, RRType.CNAME, RRType.PTR):
        target, _ = parse_name(full_wire, rdata_offset)
        rdata = {
            RRType.NS: NSRdata,
            RRType.CNAME: CNAMERdata,
            RRType.PTR: PTRRdata,
        }[rtype](target)
    elif rtype is RRType.MX:
        (pref,) = struct.unpack_from("!H", rdata_wire)
        exchange, _ = parse_name(full_wire, rdata_offset + 2)
        rdata = MXRdata(pref, exchange)
    elif rtype is RRType.TXT:
        rdata = TXTRdata(rdata_wire[1 : 1 + rdata_wire[0]].decode("ascii"))
    elif rtype is RRType.SOA:
        mname, off = parse_name(full_wire, rdata_offset)
        rname2, off = parse_name(full_wire, off)
        serial, refresh, retry, expire, minimum = struct.unpack_from("!IIIII", full_wire, off)
        rdata = SOARdata(mname, rname2, serial, refresh, retry, expire, minimum)
    elif rtype is RRType.SRV:
        prio, weight, port = struct.unpack_from("!HHH", rdata_wire)
        target, _ = parse_name(full_wire, rdata_offset + 6)
        rdata = SRVRdata(prio, weight, port, target)
    else:
        raise WireError(f"cannot decode rdata type {rtype!r}")
    return ResourceRecord(rname, rtype, rdata, ttl)
