"""The crash-safe publish journal: fsync'd intent records, replayed on boot.

The publish gate's correctness story — *only VERIFIED zones serve* — has
to survive the process dying at any instruction. The journal makes the
publish sequence durable: **before** each snapshot swap the gate appends
one JSON line (sequence, zone digest, verdict, source) and fsyncs it
(:func:`repro.resilience.jsonl.append`); only then does the swap
happen. On boot :meth:`PublishJournal.head` replays the file —
tolerating a torn final line, which is exactly what a crash mid-append
leaves behind — and the server compares the journal head against the
zone it is about to serve:

- **digests agree** — the on-disk zone is the last VERIFIED publish; the
  server adopts the journaled sequence number and serves immediately.
  SIGKILL-then-restart is bit-identical to never having crashed.
- **digests disagree** — the zone file moved past (or never reached) the
  journal head, so its verification status is unknown; the server
  *refuses to serve it* until a fresh bootstrap verification passes, and
  journals that verification as a new record.

Append ordering gives the recovery invariant: a journaled record may
describe a swap that never happened (crash between append and swap), but
a swap can never have happened without its record — so the journal head
is always an upper bound on what was served, and everything it names was
VERIFIED first.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.resilience import faults, jsonl

#: Journal format version, first field of every record.
JOURNAL_FORMAT = 1


@dataclass(frozen=True)
class JournalRecord:
    """One durable publish: the state the serving plane may legally reach."""

    sequence: int
    digest: str
    verdict: str
    source: str  # "publish" | "reload:<path>" | "bootstrap" | "recovery"
    at: float = 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "format": JOURNAL_FORMAT,
            "sequence": self.sequence,
            "digest": self.digest,
            "verdict": self.verdict,
            "source": self.source,
            "at": self.at,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "JournalRecord":
        return cls(
            sequence=int(payload["sequence"]),
            digest=str(payload["digest"]),
            verdict=str(payload["verdict"]),
            source=str(payload.get("source", "")),
            at=float(payload.get("at", 0.0)),
        )


class JournalError(RuntimeError):
    """The journal could not be appended to (the publish must be held:
    without a durable record the crash-safety invariant is void)."""

    #: classify_error honours this: a journal failure is an IO failure.
    taxonomy = "io"


class PublishJournal:
    """Append-only JSONL journal of VERIFIED publishes, fsync'd per record."""

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        self.appends = 0
        self.append_failures = 0
        self.torn_records_skipped = 0

    # -- writing -------------------------------------------------------------

    def append(self, record: JournalRecord) -> None:
        """Durably append one record; raises :class:`JournalError` if the
        record cannot be made durable (the caller must then *hold* the
        publish — serving state must never run ahead of the journal).

        The ``serve.journal.write`` fault site simulates the worst crash
        shape: half the record reaches the disk, then the write dies —
        which is also what SIGKILL mid-append leaves. Replay must shrug
        off that torn tail, and the next append seals it.
        """
        try:
            jsonl.append(self.path, record.to_json(),
                         fault_site=faults.SITE_SERVE_JOURNAL_WRITE)
        except OSError as exc:
            self.append_failures += 1
            raise JournalError(f"journal append failed: {exc}") from exc
        self.appends += 1

    # -- replay --------------------------------------------------------------

    def replay(self) -> List[JournalRecord]:
        """All decodable records in append order. Undecodable lines (a
        torn final append, bit rot) are skipped and counted — recovery
        proceeds from the last *good* record, never aborts."""
        payloads, skipped = jsonl.read(self.path)
        records: List[JournalRecord] = []
        for payload in payloads:
            try:
                records.append(JournalRecord.from_json(payload))
            except (ValueError, KeyError, TypeError):
                skipped += 1
        # The count reflects the file's current state (idempotent across
        # repeated replays, e.g. head() called from the status channel).
        self.torn_records_skipped = skipped
        return records

    def head(self) -> Optional[JournalRecord]:
        """The most recent durable record, or None for a fresh journal."""
        records = self.replay()
        return records[-1] if records else None

    def as_dict(self) -> Dict[str, object]:
        head = self.head()
        return {
            "path": self.path,
            "appends": self.appends,
            "append_failures": self.append_failures,
            "torn_records_skipped": self.torn_records_skipped,
            "head": head.to_json() if head else None,
        }
