"""The immutable serving unit: one zone, one engine, one domain tree.

A :class:`ServingSnapshot` bundles everything one query needs — the zone,
its :class:`~repro.engine.encoding.ZoneEncoder`, the engine's in-heap
domain tree and the engine module itself — built once and never mutated.
The server publishes a new snapshot by swapping a single reference
(atomic under the GIL), so in-flight queries keep resolving against the
snapshot they started with and a hot-swap never drops traffic.

The one mutable part is the answer memo, :attr:`ServingSnapshot.answers`.
A published snapshot is VERIFIED and immutable, so the reply bytes after
the transaction id are a pure function of (snapshot, query bytes after
the transaction id); :meth:`~repro.serve.server.ZoneServer.handle_packet`
memoises them there. The memo dies with its snapshot: a publish swaps in
a new snapshot with an empty one, so no answer outlives the zone that
produced it and nothing ever invalidates an entry.

Rendering a miss
----------------

A memo miss runs the engine once (:meth:`ServingSnapshot.run_engine`) and
turns its answer straight into wire bytes (:meth:`ServingSnapshot.render`):
the header, the question echo, then per record its owner labels and the
rest of the record. Output names are never compressed
(:mod:`repro.dns.wire`), so both parts depend on the record alone and
come from two per-snapshot fragment tables, filled on first use and
dropped with the snapshot like the memo: label code → length-prefixed
label bytes, and ``(rtype, rdata_id)`` → the record's bytes after its
owner name. A label the query brought in (a wildcard echo) is rendered on
the spot from the query's overlay. Anything the tables cannot render —
a gap code outside the overlay, an rdata that does not encode, an rtype
that does not match its rdata, an rcode outside :class:`RCode` — sends
that reply down the slow path, :meth:`ServingSnapshot.decode` plus
``build_response`` over the same engine output, which classifies the
failure exactly as before. The slow path is also :meth:`resolve`, which
the self-checker replays sampled memo entries through, so it stays the
differential oracle of the fast one.

Fresh-label encoding
--------------------

Query names routinely contain labels the zone has never seen (NXDOMAIN
traffic, wildcard synthesis). The interner's code space is built for this:
codes between two interned codes denote labels lying strictly between the
neighbouring interned labels. :func:`encode_query_name` allocates a
*distinct* gap code per distinct unknown label — mid-gap, ordered
byte-wise within the gap — so ``a.b.example.com`` with two unknown labels
never collapses into ``x.x.example.com`` (the bug the old example had:
every unknown label mapped to ``interner.max_code``, so distinct unknown
labels in one qname collided, and wildcard matching saw the wrong shape).
The returned overlay maps each fresh code back to the original query
label, so synthesized records (wildcard expansion echoes the query name)
decode to exactly what the client asked for.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dns.interner import LABEL_SPACING, LabelInterner
from repro.dns.message import Query, Response
from repro.dns.name import MAX_NAME_DEPTH, DnsName
from repro.dns.records import ResourceRecord
from repro.dns.rtypes import RCode, RRType
from repro.dns.wire import (
    encode_question,
    encode_record_tail,
    response_header_tail,
)
from repro.dns.zone import Zone
from repro.engine import control
from repro.engine.encoding import ZoneEncoder
from repro.incremental.digest import zone_digest


class ResolveError(Exception):
    """The engine crashed on a query or its answer did not decode; the
    server degrades the query to SERVFAIL and counts it."""

    def __init__(self, message: str, crash: Optional[BaseException] = None):
        super().__init__(message)
        self.crash = crash


def encode_query_name(
    interner: LabelInterner, name
) -> Tuple[List[int], Dict[int, str]]:
    """Codes for a query name, with distinct order-consistent fresh codes
    for labels outside the interner universe.

    Returns ``(codes, overlay)`` where ``overlay`` maps each fresh code
    back to its label (for decoding responses that echo the query name).
    Unknown labels are ranked against the interned universe and placed
    mid-gap; several unknown labels landing in the same gap are ordered
    byte-wise within it, so every comparison an engine walk can make
    (``<`` / ``>`` / ``==`` against interned codes *and* between fresh
    codes) agrees with canonical label order.
    """
    universe = interner.universe
    unknown: Dict[str, int] = {}  # label -> gap rank
    for label in name.reversed_labels:
        lab = label.lower()
        if not interner.has(lab):
            unknown.setdefault(lab, bisect_left(universe, lab))

    fresh: Dict[str, int] = {}
    overlay: Dict[int, str] = {}
    by_gap: Dict[int, List[str]] = {}
    for lab, rank in unknown.items():
        by_gap.setdefault(rank, []).append(lab)
    for rank, labels in by_gap.items():
        base = rank * LABEL_SPACING + LABEL_SPACING // 2
        for offset, lab in enumerate(sorted(labels)):
            code = base + offset
            fresh[lab] = code
            overlay[code] = lab

    codes = []
    for label in name.reversed_labels:
        lab = label.lower()
        codes.append(interner.code(lab) if interner.has(lab) else fresh[lab])
    return codes, overlay


#: The rcodes a rendered reply may carry; any other engine rcode takes
#: the slow path, which reports it as it always has.
_RCODES = frozenset(int(rcode) for rcode in RCode)

#: Owner of the throwaway record a fragment is encoded from: a fragment
#: is the bytes after the owner name, so the owner never reaches it.
_ROOT = DnsName(())


def _label_wire(label: str) -> bytes:
    raw = label.encode("ascii")
    return bytes((len(raw),)) + raw


@dataclass(frozen=True)
class ServingSnapshot:
    """One published state of the serving plane.

    Nothing but :attr:`answers` and the two fragment tables is mutated
    after construction. ``answers`` maps a query's bytes after the
    transaction id to ``(rcode, reply bytes after the transaction id)``;
    only the server's query path writes it, and it starts empty on every
    snapshot. :attr:`label_fragments` and :attr:`record_fragments` are
    :meth:`render`'s caches (see the module docstring), also empty at
    birth.
    """

    zone: Zone
    version: str
    encoder: ZoneEncoder = field(repr=False)
    tree: object = field(repr=False)  # DomainTree
    module: object = field(repr=False)  # GoPy engine module
    digest: str = ""
    sequence: int = 0
    published_at: float = 0.0
    answers: dict = field(default_factory=dict, repr=False, compare=False)
    label_fragments: dict = field(default_factory=dict, repr=False,
                                  compare=False)
    record_fragments: dict = field(default_factory=dict, repr=False,
                                   compare=False)

    def resolve(self, query: Query) -> Response:
        """Answer one query against this snapshot (the slow path).

        Raises :class:`ResolveError` when the engine panics (buggy
        versions do) or the engine's answer fails to decode; the caller
        turns that into SERVFAIL.
        """
        return self.decode(query, *self.run_engine(query))

    def run_engine(self, query: Query) -> Tuple[object, Dict[int, str]]:
        """The engine's answer to ``query`` and the query's fresh-label
        overlay; raises :class:`ResolveError` (with ``crash`` set) when
        the engine panics."""
        codes, overlay = encode_query_name(self.encoder.interner, query.qname)
        try:
            go_resp = control.run_engine_concrete(
                self.module, self.tree, codes, int(query.qtype)
            )
        except Exception as exc:  # engine panic: IndexError/AttributeError/...
            raise ResolveError(
                f"engine {self.version} crashed on {query.to_text()}: "
                f"{type(exc).__name__}: {exc}",
                crash=exc,
            ) from exc
        return go_resp, overlay

    def decode(self, query: Query, go_resp, overlay: Dict[int, str]
               ) -> Response:
        """Decode an engine answer; raises :class:`ResolveError` when it
        does not decode: an owner label outside the interner and the
        overlay, an unknown rdata id, a type its rdata does not have, an
        rcode outside :class:`RCode`, or an unrepresentable owner name."""
        try:
            decoded = self.encoder.decode_response(query, go_resp,
                                                   overrides=overlay)
        except (KeyError, ValueError) as exc:  # NameError_ is a ValueError
            raise ResolveError(
                f"answer for {query.to_text()} did not decode: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if decoded is None:
            raise ResolveError(f"answer for {query.to_text()} did not decode")
        return decoded

    def render(self, query: Query, go_resp, overlay: Dict[int, str]
               ) -> Optional[Tuple[int, bytes]]:
        """``(rcode, reply bytes after the transaction id)`` for the engine
        answer ``go_resp`` to ``query``, byte-identical to what
        :meth:`decode` and ``build_response`` make of it. None when some
        part of it has no fragment; the caller then takes that slow path,
        which classifies the failure."""
        try:
            rcode = go_resp.rcode
            if rcode not in _RCODES:
                return None
            answer = go_resp.answer
            authority = go_resp.authority
            additional = go_resp.additional
            out = [
                response_header_tail(
                    rcode, go_resp.aa,
                    (len(answer), len(authority), len(additional))),
                encode_question(query),
            ]
            labels = self.label_fragments
            records = self.record_fragments
            for section in (answer, authority, additional):
                for rr in section:
                    codes = rr.rname
                    if len(codes) > MAX_NAME_DEPTH:
                        return None
                    for code in reversed(codes):
                        label = labels.get(code)
                        if label is None:
                            label = self._label_fragment(code, overlay)
                            if label is None:
                                return None
                        out.append(label)
                    out.append(b"\0")
                    key = (rr.rtype, rr.rdata_id)
                    tail = records.get(key)
                    if tail is None:
                        tail = self._record_fragment(key)
                    out.append(tail)
        except Exception:  # anything odd in the engine's answer
            return None
        return rcode, b"".join(out)

    def _label_fragment(self, code: int, overlay: Dict[int, str]
                        ) -> Optional[bytes]:
        """One owner label's wire bytes: a query label the engine echoed
        (rendered on the spot: overlay codes are per query) or an interned
        label (kept). None for a gap code outside the overlay."""
        label = overlay.get(code)
        if label is not None:
            return _label_wire(label)
        label = self.encoder.interner.interned_label(code)
        if label is None:
            return None
        fragment = self.label_fragments[code] = _label_wire(label)
        return fragment

    def _record_fragment(self, key: Tuple[int, int]) -> bytes:
        """The wire bytes after the owner name of a record of type
        ``key[0]`` carrying rdata ``key[1]``, with the TTL
        :meth:`ZoneEncoder.decode_rr` gives it. Raises when the id is
        unknown, the types disagree or the rdata does not encode."""
        rtype, rdata_id = key
        record = ResourceRecord(
            _ROOT, RRType(rtype), self.encoder.rdata_for_id(rdata_id))
        fragment = self.record_fragments[key] = encode_record_tail(record)
        return fragment

    def describe(self) -> str:
        return (
            f"snapshot #{self.sequence} of {self.zone.origin.to_text()} "
            f"({len(self.zone)} records, engine {self.version}, "
            f"digest {self.digest[:12]})"
        )


def build_snapshot(
    zone: Zone,
    version: str = "verified",
    sequence: int = 0,
    clock=time.monotonic,
) -> ServingSnapshot:
    """Encode ``zone`` for ``version`` into an immutable serving snapshot."""
    if version not in control.ENGINE_VERSIONS:
        raise ValueError(f"unknown engine version {version!r}")
    encoder = ZoneEncoder(zone)
    return ServingSnapshot(
        zone=zone,
        version=version,
        encoder=encoder,
        tree=control.build_domain_tree(encoder),
        module=control.ENGINE_VERSIONS[version],
        digest=zone_digest(zone),
        sequence=sequence,
        published_at=clock(),
    )
