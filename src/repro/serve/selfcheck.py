"""Differential self-checking of the live serving path.

The verifier proves the engine against the specification offline; the
self-checker closes the loop on the *running* server by replaying a sample
of real queries two ways — through the serving snapshot (whatever engine
version is deployed) and through a ``verified``-engine snapshot of the
same zone — and alarming on any divergence. A crash of the serving engine
on a sampled query also counts as a divergence (the verified engine, by
construction, answers it).

Sampling is deterministic (every ``every``-th query) and bounded: sampled
queries land in a fixed-size ring buffer that :meth:`run` drains, so an
abusive query rate cannot grow memory or turn the checker into a second
query load. The spec-level cross-check of
:func:`repro.testing.differential.differential_test` is additionally run
over the same sample, so a divergence report distinguishes "engine
disagrees with the verified engine" from "both disagree with the spec".

The checker is also the oracle for the snapshot's answer memo
(:attr:`~repro.serve.snapshot.ServingSnapshot.answers`): each sample
keeps the packet's memo key, and a sampled question whose answer is
memoised must have a cached reply byte-identical to what the snapshot's
engine builds for it now. A mismatch is a ``cache-divergence``. Misses
are rendered from the snapshot's wire fragments
(:meth:`~repro.serve.snapshot.ServingSnapshot.render`) while the
rebuild here goes through ``resolve`` and ``build_response``, so the
same check holds the fast path to the slow one.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.dns.message import Query
from repro.dns.wire import WireError, build_response, parse_query
from repro.dns.zonefile import zone_to_text
from repro.serve.snapshot import ResolveError, ServingSnapshot, build_snapshot
from repro.testing.differential import differential_test

#: Bound on retained structured divergence records (each carries a full
#: zone snapshot text; an alarming server must not grow without bound).
_EXPORT_CAP = 128


class SelfChecker:
    """Sample live queries; replay them against the verified engine."""

    def __init__(self, every: int = 64, capacity: int = 256,
                 reference_version: str = "verified",
                 clock=time.monotonic):
        if every <= 0:
            raise ValueError("every must be positive")
        self.every = every
        self.reference_version = reference_version
        self._clock = clock
        self._buffer: Deque[Tuple[Optional[Query], Optional[bytes]]] = deque(
            maxlen=capacity)
        self._seen = 0
        self._reference: Optional[ServingSnapshot] = None
        self.runs = 0
        self.queries_checked = 0
        self.divergences = 0
        self.spec_divergences = 0
        self.last_run_at: Optional[float] = None
        self.last_divergence: Optional[str] = None
        #: Structured divergence records awaiting export — each one is a
        #: replayable (zone snapshot, offending query) pair in the exact
        #: shape :meth:`repro.campaign.store.RegressionStore.ingest`
        #: files as a regression corpus entry.
        self._export: Deque[Dict] = deque(maxlen=_EXPORT_CAP)

    @property
    def alarm(self) -> bool:
        return self.divergences > 0 or self.spec_divergences > 0

    # -- sampling (hot path: one modulo and sometimes an append) ------------

    def observe(self, query: Optional[Query],
                key: Optional[bytes] = None) -> None:
        """Count one live query; sample every ``every``-th. ``key`` is the
        packet's answer-memo key (its bytes after the transaction id).
        An answer-memo hit passes no ``query``: :meth:`run` re-parses it
        from ``key``."""
        self._seen += 1
        if self._seen % self.every == 0:
            self._buffer.append((query, key))

    @property
    def pending(self) -> int:
        return len(self._buffer)

    # -- replay -------------------------------------------------------------

    def _reference_for(self, snapshot: ServingSnapshot) -> ServingSnapshot:
        ref = self._reference
        if ref is None or ref.digest != snapshot.digest:
            ref = build_snapshot(snapshot.zone, self.reference_version)
            self._reference = ref
        return ref

    def run(self, snapshot: ServingSnapshot) -> Dict[str, object]:
        """Drain the sample buffer and cross-check it; returns a report."""
        queries: List[Query] = []
        keyed: Dict[bytes, Query] = {}
        seen = set()
        while self._buffer:
            query, key = self._buffer.popleft()
            if query is None:
                query = parse_query(b"\0\0" + key)[1]
            if key is not None:
                keyed[key] = query
            question = (query.qname, query.qtype)
            if question not in seen:
                seen.add(question)
                queries.append(query)
        self.runs += 1
        self.last_run_at = self._clock()
        found: List[str] = []
        zone_text: Optional[str] = None

        def export(query: Query, kind: str, detail: str) -> None:
            nonlocal zone_text
            if zone_text is None:  # serialize the snapshot at most once
                zone_text = zone_to_text(snapshot.zone)
            self._export.append({
                "zone_text": zone_text,
                "query": {"qname": query.qname.to_text(),
                          "qtype": query.qtype},
                "version": snapshot.version,
                "kind": kind,
                "detail": detail,
            })

        if queries and snapshot.version != self.reference_version:
            reference = self._reference_for(snapshot)
            for query in queries:
                try:
                    served = snapshot.resolve(query)
                except ResolveError as exc:
                    found.append(f"{query.to_text()}: serving engine crashed: {exc}")
                    export(query, "serving-crash", str(exc))
                    continue
                expected = reference.resolve(query)
                if not served.semantically_equal(expected):
                    found.append(
                        f"{query.to_text()}: {snapshot.version} diverges from "
                        f"{self.reference_version}"
                    )
                    export(query, "engine-divergence",
                           f"{snapshot.version} vs {self.reference_version}")
        for key, query in keyed.items():
            cached = snapshot.answers.get(key)
            if cached is None:
                continue
            try:
                expected = build_response(0, snapshot.resolve(query))[2:]
            except (ResolveError, WireError):
                expected = None  # a failure is never memoised
            if cached[1] != expected:
                found.append(f"{query.to_text()}: cached answer diverges "
                             f"from the {snapshot.version} engine")
                export(query, "cache-divergence",
                       f"answer memo vs {snapshot.version} engine")
        spec_divergences = 0
        if queries:
            spec_result = differential_test(
                snapshot.zone, snapshot.version, queries=queries,
                check_reference=False,
            )
            spec_divergences = len(spec_result.divergences)
            self.spec_divergences += spec_divergences
            for divergence in spec_result.divergences:
                export(divergence.query, "spec-divergence",
                       divergence.describe())

        self.queries_checked += len(queries)
        self.divergences += len(found)
        if found:
            self.last_divergence = found[0]
        return {
            "queries": len(queries),
            "divergences": len(found),
            "spec_divergences": spec_divergences,
            "details": found[:10],
        }

    # -- export (feeds the campaign's regression corpus) ---------------------

    @property
    def exportable(self) -> int:
        return len(self._export)

    def export_divergences(self, clear: bool = True) -> List[Dict]:
        """Drain the structured divergence records seen so far.

        Each record is a self-contained reproducer — the zone snapshot
        text plus the offending query — ready for
        :meth:`repro.campaign.store.RegressionStore.ingest`, which turns
        a divergence seen once in production into a regression unit every
        future campaign replays.
        """
        records = list(self._export)
        if clear:
            self._export.clear()
        return records

    def as_dict(self) -> Dict[str, object]:
        return {
            "every": self.every,
            "sampled_pending": self.pending,
            "runs": self.runs,
            "queries_checked": self.queries_checked,
            "divergences": self.divergences,
            "spec_divergences": self.spec_divergences,
            "alarm": self.alarm,
            "last_divergence": self.last_divergence,
            "exportable_records": len(self._export),
        }
