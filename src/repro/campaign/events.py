"""The campaign's observability stream: append-only JSONL events.

One fsync'd line per event (:func:`repro.resilience.jsonl.append`), so
an external consumer (``tail -f``, the CI smoke job, the soak tests) can
watch a live campaign. The stream is *telemetry*, not state: the daemon
never reads it back. A torn final line (SIGKILL mid-write) is sealed by
the next run's first event and skipped by :func:`read_events`, exactly
like the checkpoint loader skips torn records.

Conservation invariant (asserted by the soak tests): at any prefix of
the stream, ``scheduled == completed + requeued + in_flight`` where
``in_flight`` is derived. Every scheduling *attempt* emits ``scheduled``;
every attempt ends in exactly one of ``completed`` (a verdict, including
replays from the checkpoint and stalled units typed UNKNOWN) or
``requeued`` (a failed batch abandoned the attempt, and a new
``scheduled`` attempt follows). A drained campaign
ends with ``in_flight == 0``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.resilience import jsonl

#: Event kinds the service emits.
EV_START = "service-start"
EV_BATCH = "batch-start"
EV_SCHEDULED = "scheduled"
EV_COMPLETED = "completed"
EV_REQUEUED = "requeued"
EV_REGRESSION = "regression-captured"
EV_CHECKPOINT = "checkpoint"
EV_BREAKER = "breaker"
EV_DRAIN = "drain"
EV_STOP = "service-stop"


class EventLog:
    """Append-only JSONL event writer (one durable append per event)."""

    def __init__(self, path, clock=time.time) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self.emitted = 0

    def emit(self, kind: str, **fields) -> None:
        record = {"t": round(self._clock(), 6), "kind": kind}
        record.update(fields)
        jsonl.append(self.path, record)
        self.emitted += 1


def read_events(path) -> List[Dict]:
    """Parse an event stream; torn/corrupt lines are skipped."""
    records, _skipped = jsonl.read(path)
    return [record for record in records if "kind" in record]


def conservation(events: Iterable[Dict]) -> Dict[str, int]:
    """Unit-attempt accounting over an event stream.

    Returns ``scheduled``/``completed``/``requeued`` counts plus the
    derived ``in_flight = scheduled - completed - requeued``. The stream
    satisfies the conservation invariant iff ``in_flight >= 0`` at every
    prefix and ``== 0`` once the service has drained.
    """
    scheduled = completed = requeued = 0
    min_in_flight = 0
    for event in events:
        kind = event.get("kind")
        if kind == EV_SCHEDULED:
            scheduled += 1
        elif kind == EV_COMPLETED:
            completed += 1
        elif kind == EV_REQUEUED:
            requeued += 1
        min_in_flight = min(min_in_flight, scheduled - completed - requeued)
    return {
        "scheduled": scheduled,
        "completed": completed,
        "requeued": requeued,
        "in_flight": scheduled - completed - requeued,
        "min_in_flight": min_in_flight,
    }


def last_event(events: List[Dict], kind: str) -> Optional[Dict]:
    for event in reversed(events):
        if event.get("kind") == kind:
            return event
    return None
