"""``repro watch``: keep one zone file's verification verdict current.

:class:`WatchDaemon` is a front end on the zone tailer,
:class:`~repro.serve.reload.ZoneReloader`, which polls, reads and parses
the file and owns the retry policy and circuit breaker. The daemon adds
what is watch-specific: a sink that re-verifies each parsed zone via
:class:`~repro.incremental.engine.IncrementalVerifier`, one JSON line per
update (latency, partition reuse, solver checks, verdict and a ``health``
record), and the blocking :meth:`WatchDaemon.run` loop, which exits once
the breaker opens. ``python -m repro watch --zone ...`` runs it; tests
drive :meth:`WatchDaemon.poll_once` directly.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.incremental.cache import SummaryCache
from repro.incremental.engine import IncrementalOutcome, IncrementalVerifier
from repro.resilience import faults
from repro.resilience.supervise import RetryPolicy
from repro.serve.reload import ZoneReloader


@dataclass
class WatchEvent:
    """One processed update (or the initial verification)."""

    sequence: int
    reason: str  # "initial" | "change"
    outcome: Optional[IncrementalOutcome]
    error: Optional[str]
    latency_seconds: float
    health: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        payload = {
            "sequence": self.sequence,
            "reason": self.reason,
            "latency_seconds": round(self.latency_seconds, 6),
            "health": dict(self.health),
        }
        if self.error is not None:
            payload["error"] = self.error
            return payload
        result = self.outcome.result
        payload.update(
            {
                "verified": result.verified,
                "verdict": result.verdict,
                "bugs": len(result.bugs),
                "bug_categories": result.bug_categories(),
                "solver_checks": result.solver_checks,
                "reuse": self.outcome.reuse.as_dict(),
            }
        )
        return payload


class WatchDaemon:
    """Tail one zone file and keep its verification verdict current."""

    def __init__(
        self,
        zone_path: os.PathLike,
        version: str = "verified",
        cache: Optional[SummaryCache] = None,
        interval: float = 1.0,
        log: Optional[Callable[[str], None]] = None,
        retry: Optional[RetryPolicy] = None,
        max_failures: int = 5,
        sleep: Callable[[float], None] = time.sleep,
        options=None,
    ) -> None:
        self.zone_path = os.fspath(zone_path)
        self.version = version
        self.cache = cache if cache is not None else SummaryCache(memory_only=True)
        #: Forwarded to :class:`IncrementalVerifier`: a
        #: :class:`~repro.core.options.VerifyOptions` (None = defaults)
        #: carrying every knob, ``workers`` and the per-partition budget
        #: included.
        self.options = options
        self.interval = interval
        self.log = log or functools.partial(print, flush=True)
        self.reloader: ZoneReloader[WatchEvent] = ZoneReloader(
            self.zone_path, self._verify, retry=retry,
            max_failures=max_failures, sleep=sleep,
            stat_site=faults.SITE_WATCH_STAT, read_site=faults.SITE_WATCH_READ,
        )
        self.breaker = self.reloader.breaker
        self.verifier: Optional[IncrementalVerifier] = None
        self.sequence = 0
        self._started = 0.0
        self._last_error: Optional[str] = None

    # -- polling ---------------------------------------------------------------

    def poll_once(self) -> Optional[WatchEvent]:
        """Process at most one update; None when the file is unchanged,
        the breaker is open, or the poll repeated the last reported
        error (a repeat still feeds the breaker; the poll that trips it
        is always reported)."""
        self._started = time.perf_counter()
        failures = self.reloader.failures
        event = self.reloader.poll_once()
        if self.reloader.failures == failures:
            self._last_error = None
            return event
        error = self.reloader.last_error
        if error == self._last_error and not self.breaker.is_open:
            return None
        self._last_error = error
        return self._emit("change" if self.verifier else "initial", None,
                          error)

    def _verify(self, zone) -> WatchEvent:
        """The reloader's sink: verify the first zone from scratch, then
        re-verify each change as a delta."""
        if self.verifier is None:
            self.verifier = IncrementalVerifier(
                zone, self.version, cache=self.cache, options=self.options,
            )
            return self._emit("initial", self.verifier.verify_current(), None)
        return self._emit("change", self.verifier.diff_to(zone), None)

    def _emit(self, reason, outcome, error) -> WatchEvent:
        self.sequence += 1
        health = {
            "attempts": self.reloader.attempts,
            "consecutive_failures": self.breaker.consecutive_failures,
            "breaker": self.breaker.state,
        }
        event = WatchEvent(self.sequence, reason, outcome, error,
                           time.perf_counter() - self._started, health)
        self.log(json.dumps(event.to_json(), sort_keys=True))
        return event

    def run(self, max_updates: Optional[int] = None) -> int:
        """Poll until interrupted, the circuit breaker opens, or
        ``max_updates`` events were processed; returns the event count."""
        processed = 0
        try:
            while max_updates is None or processed < max_updates:
                event = self.poll_once()
                if event is not None:
                    processed += 1
                    if max_updates is not None and processed >= max_updates:
                        break
                if self.breaker.is_open:
                    break
                time.sleep(self.interval)
        except KeyboardInterrupt:
            pass
        return processed
