"""The verify-then-publish gate between zone updates and the serving plane.

Every zone delta funnels through :meth:`PublishGate.submit`: the candidate
zone is re-verified by an :class:`~repro.incremental.IncrementalVerifier`
(so unchanged query-space partitions replay from the verdict cache and the
gate's latency tracks the *delta*, not the zone), and the typed verdict
decides publication:

- ``VERIFIED``  — a fresh :class:`~repro.serve.snapshot.ServingSnapshot`
  is built and swapped in atomically; in-flight queries finish on the old
  snapshot, new queries see the new one, nothing drops.
- ``BUG`` / ``UNKNOWN`` / ``ERROR`` — the old snapshot keeps serving, the
  candidate is *held*, and a health alarm latches (visible on the status
  channel) until a later submission publishes cleanly.

The verifier deliberately tracks the latest *submitted* zone rather than
the latest *published* one: after a held delta, the next submission is
verified as a delta against what the operator most recently pushed, which
is both cheaper (closure-level invalidation) and what an operator fixing a
bad push expects. The serving snapshot only ever advances on VERIFIED.

``submit`` is synchronous and CPU-bound (it runs the prover); the asyncio
server calls it via a worker thread so the event loop keeps answering
queries mid-verification. Concurrent submissions (API publish racing the
file reloader) are serialized by an internal lock — the gate is one
verifier and one snapshot lineage, so there is nothing to parallelize.
The snapshot swap itself is a single attribute assignment, atomic under
the GIL.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

from repro.dns.zone import Zone
from repro.incremental.cache import SummaryCache
from repro.incremental.digest import zone_digest
from repro.incremental.engine import IncrementalVerifier
from repro.resilience import faults
from repro.resilience import verdicts as verdicts_mod
from repro.serve.journal import JournalError, JournalRecord, PublishJournal
from repro.serve.snapshot import ServingSnapshot, build_snapshot

#: How many publish/hold outcomes the gate remembers for the status feed.
HISTORY_LIMIT = 32


@dataclass(frozen=True)
class PublishResult:
    """The outcome of one gated submission."""

    accepted: bool
    verdict: str
    reason: Optional[str]
    records_changed: int
    bugs: int
    verify_seconds: float
    publish_seconds: float  # submit -> swap (or hold) wall time
    sequence: int  # snapshot sequence now serving
    snapshot_digest: str  # digest now serving
    error: Optional[str] = None
    units_recomputed: int = 0  # plan units verified afresh, not replayed

    def describe(self) -> str:
        action = "published" if self.accepted else "HELD"
        extra = f" ({self.reason})" if self.reason else ""
        return (
            f"{action}: {self.verdict}{extra}, {self.records_changed} record(s) "
            f"changed, {self.units_recomputed} unit(s) recomputed, verify "
            f"{self.verify_seconds:.2f}s, now serving "
            f"#{self.sequence} {self.snapshot_digest[:12]}"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "accepted": self.accepted,
            "verdict": self.verdict,
            "reason": self.reason,
            "records_changed": self.records_changed,
            "bugs": self.bugs,
            "verify_seconds": round(self.verify_seconds, 6),
            "publish_seconds": round(self.publish_seconds, 6),
            "sequence": self.sequence,
            "snapshot_digest": self.snapshot_digest,
            "error": self.error,
            "units_recomputed": self.units_recomputed,
        }


class PublishGate:
    """Owns the currently-published snapshot and the verifier gating it.

    ``options`` (a :class:`~repro.core.options.VerifyOptions`, None =
    defaults) is handed to that verifier whole: its ``workers``, budget
    and analysis knobs govern every gated re-verification.
    """

    def __init__(
        self,
        snapshot: ServingSnapshot,
        cache: Optional[SummaryCache] = None,
        options=None,
        journal: Optional[PublishJournal] = None,
        clock=time.monotonic,
    ):
        self.snapshot = snapshot
        self._clock = clock
        self._verifier = IncrementalVerifier(
            snapshot.zone,
            snapshot.version,
            cache=cache if cache is not None else SummaryCache(memory_only=True),
            options=options,
        )
        self.journal = journal
        self.publishes = 0
        self.holds = 0
        self.errors = 0
        self.publishes_coalesced = 0
        self.journal_failures = 0
        #: Latched on hold, cleared on the next successful publish.
        self.alarm: Optional[Dict[str, object]] = None
        self.last_result: Optional[PublishResult] = None
        self.history: Deque[Dict[str, object]] = deque(maxlen=HISTORY_LIMIT)
        #: Submissions arrive from multiple worker threads (ZoneServer.publish
        #: runs in asyncio.to_thread, ZoneReloader.run in another); the gate
        #: is inherently sequential — one verifier, one snapshot lineage — so
        #: serialize them rather than racing on shared verifier state.
        self._lock = threading.Lock()
        #: Coalescing slot: the newest zone waiting for the lock, so a
        #: burst of submissions verifies only the latest content.
        self._queue_lock = threading.Lock()
        self._queued: Optional[tuple] = None

    # -- gating -------------------------------------------------------------

    def bootstrap(self) -> PublishResult:
        """Verify the zone the gate booted with (no delta, no swap on
        success — the snapshot is already serving). A failing bootstrap
        holds nothing but latches the alarm."""
        return self._gate(self.snapshot.zone, bootstrap=True, source="bootstrap")

    def submit(self, new_zone: Zone, source: str = "publish") -> PublishResult:
        """Verify ``new_zone`` and publish it iff the verdict is VERIFIED."""
        return self._gate(new_zone, bootstrap=False, source=source)

    def submit_coalescing(self, new_zone: Zone,
                          source: str = "publish") -> Optional[PublishResult]:
        """Like :meth:`submit`, but a delta superseded while waiting for
        an in-flight verification is dropped unverified: only the newest
        queued content runs the prover. Returns ``None`` when this
        submission was coalesced away (the superseding caller verifies
        it — counted in ``publishes_coalesced``). A burst of zone-file
        writes therefore costs one verification, not a backlog of
        obsolete ones."""
        token = object()
        with self._queue_lock:
            if self._queued is not None:
                # The delta already waiting is now stale: ours replaces it.
                self.publishes_coalesced += 1
            self._queued = (new_zone, source, token)
        with self._lock:
            with self._queue_lock:
                if self._queued is None or self._queued[2] is not token:
                    # Superseded while we waited; the newer caller verifies.
                    return None
                zone, src, _ = self._queued
                self._queued = None
            return self._gate_locked(zone, bootstrap=False, source=src)

    def reload_sink(self, path) -> Callable[[Zone], Optional[PublishResult]]:
        """The sink a :class:`~repro.serve.reload.ZoneReloader` tailing
        ``path`` feeds: a coalescing submission, so a reload racing an API
        publish verifies only the newest content."""
        source = f"reload:{os.fspath(path)}"

        def submit(zone: Zone) -> Optional[PublishResult]:
            result = self.submit_coalescing(zone, source=source)
            # Superseded while queued: the superseding submission's
            # verdict is the gate's latest.
            return result if result is not None else self.last_result

        return submit

    def _gate(self, zone: Zone, bootstrap: bool, source: str) -> PublishResult:
        with self._lock:
            return self._gate_locked(zone, bootstrap, source)

    def _gate_locked(self, zone: Zone, bootstrap: bool,
                     source: str) -> PublishResult:
        started = time.perf_counter()
        error = None
        bugs = 0
        reason = None
        records_changed = 0
        units_recomputed = 0
        try:
            # Simulates the prover itself blowing up mid-gate (a worker
            # crash, an assertion in the verifier): the candidate must be
            # held with a typed ERROR, never published on faith.
            faults.maybe_raise(faults.SITE_SERVE_GATE_VERIFY)
            if bootstrap:
                outcome = self._verifier.verify_current()
            else:
                outcome = self._verifier.diff_to(zone)
            verdict = outcome.result.verdict
            reason = outcome.result.unknown_reason
            bugs = len(outcome.result.bugs)
            records_changed = outcome.reuse.records_changed
            units_recomputed = outcome.reuse.partitions_recomputed
            verify_seconds = outcome.result.elapsed_seconds
        except Exception as exc:  # injected faults, cache IO, compile errors
            taxonomy, detail = verdicts_mod.classify_error(exc)
            verdict = verdicts_mod.ERROR
            reason = taxonomy
            error = detail
            verify_seconds = time.perf_counter() - started
            self.errors += 1

        accepted = verdict == verdicts_mod.VERIFIED
        if accepted and not bootstrap:
            try:
                # Journal-before-swap: the durable record must exist
                # before any query can be answered from the new snapshot,
                # so a crash at any instruction leaves the journal head
                # at-or-ahead-of the serving state, never behind it.
                self._journal_publish(zone, verdict, source,
                                      self.snapshot.sequence + 1)
                faults.maybe_raise(faults.SITE_SERVE_SNAPSHOT_SWAP)
                self.snapshot = build_snapshot(
                    zone,
                    self.snapshot.version,
                    sequence=self.snapshot.sequence + 1,
                    clock=self._clock,
                )
            except Exception as exc:  # journal IO, snapshot build/swap
                taxonomy, detail = verdicts_mod.classify_error(exc)
                accepted = False
                verdict = verdicts_mod.ERROR
                reason = taxonomy
                error = detail
                self.errors += 1
        if accepted:
            self.publishes += 0 if bootstrap else 1
            self.alarm = None
        else:
            self.holds += 0 if bootstrap else 1
            self.alarm = {
                "verdict": verdict,
                "reason": reason,
                "bugs": bugs,
                "error": error,
                "at": self._clock(),
                "bootstrap": bootstrap,
            }
        result = PublishResult(
            accepted=accepted,
            verdict=verdict,
            reason=reason,
            records_changed=records_changed,
            bugs=bugs,
            verify_seconds=verify_seconds,
            publish_seconds=time.perf_counter() - started,
            sequence=self.snapshot.sequence,
            snapshot_digest=self.snapshot.digest,
            error=error,
            units_recomputed=units_recomputed,
        )
        self.last_result = result
        self.history.append(result.to_json())
        return result

    # -- the journal --------------------------------------------------------

    def _journal_publish(self, zone: Zone, verdict: str, source: str,
                         sequence: int) -> None:
        """Durably record an imminent publish. A failed append raises
        (the caller holds the publish): serving a zone the journal does
        not know about would break crash recovery's core invariant."""
        if self.journal is None:
            return
        record = JournalRecord(
            sequence=sequence,
            digest=zone_digest(zone),
            verdict=verdict,
            source=source,
            at=self._clock(),
        )
        try:
            self.journal.append(record)
        except JournalError:
            self.journal_failures += 1
            raise

    def journal_bootstrap(self, source: str = "bootstrap") -> None:
        """Record the currently-serving snapshot (boot, or recovery after
        a journal/zone mismatch) so the journal covers sequence zero."""
        if self.journal is None:
            return
        self._journal_publish(
            self.snapshot.zone,
            verdicts_mod.VERIFIED,
            source,
            self.snapshot.sequence,
        )

    # -- status -------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        last = self.last_result
        payload = {
            "publishes": self.publishes,
            "holds": self.holds,
            "errors": self.errors,
            "publishes_coalesced": self.publishes_coalesced,
            "journal_failures": self.journal_failures,
            "alarm": dict(self.alarm) if self.alarm else None,
            "last_verdict": last.verdict if last else None,
            "last_reason": last.reason if last else None,
            "serving_sequence": self.snapshot.sequence,
            "serving_digest": self.snapshot.digest,
        }
        if self.journal is not None:
            payload["journal"] = self.journal.as_dict()
        return payload
