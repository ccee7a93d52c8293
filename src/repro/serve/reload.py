"""The one zone-file tailer, hardened for production IO.

:class:`ZoneReloader` polls one zone file's mtime+size, reads a changed
file with retry/backoff (editors and zone transfers rewrite files non-
atomically; a torn read is transient), parses it, and hands the zone to
a sink callable. ``repro serve --watch`` passes
:meth:`~repro.serve.gate.PublishGate.reload_sink`, where the verify-then-
publish rule decides whether the running snapshot advances; ``repro
watch`` passes :class:`~repro.incremental.watch.WatchDaemon`'s verify sink.

Failure model, reusing :mod:`repro.resilience`:

- transient ``stat``/read errors retry with exponential backoff and
  deterministic jitter (:class:`~repro.resilience.RetryPolicy`);
- a failed read or parse does not commit the file's new identity, so the
  next poll retries it: a torn read heals once the writer finishes, and a
  persistently malformed file fails every poll;
- consecutive failing polls trip a :class:`~repro.resilience.CircuitBreaker`,
  which stops the poll loop rather than spinning on a broken path;
- a zone that fails to *parse* is a failed poll; a zone that parses but
  fails to *verify* is a successful poll whose verdict belongs to the sink.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Generic, Optional, TypeVar

from repro.dns.zone import Zone
from repro.dns.zonefile import parse_zone_text
from repro.resilience import faults
from repro.resilience.supervise import CircuitBreaker, RetryPolicy, retry_call

R = TypeVar("R")


class ZoneReloader(Generic[R]):
    """Poll one zone file; hand each parsed change to ``submit``.

    ``stat_site``/``read_site`` name the fault-injection sites of the
    caller (``watch.stat``/``watch.read`` for ``repro watch``; the serving
    plane injects only at ``serve.reload.read``).
    """

    def __init__(
        self,
        path: os.PathLike,
        submit: Callable[[Zone], R],
        retry: Optional[RetryPolicy] = None,
        max_failures: int = 5,
        sleep: Callable[[float], None] = time.sleep,
        stat_site: Optional[str] = None,
        read_site: str = faults.SITE_SERVE_RELOAD_READ,
    ):
        self.path = os.fspath(path)
        self.submit = submit
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = CircuitBreaker(max_failures=max_failures)
        self.stat_site = stat_site
        self.read_site = read_site
        self._sleep = sleep
        self._last_mtime: Optional[float] = None
        self._last_size: Optional[int] = None
        self.polls = 0
        self.reloads = 0
        self.failures = 0
        #: stat attempts + read attempts - 1 used by the last poll.
        self.attempts = 1
        self.last_error: Optional[str] = None
        self.last_result: Optional[R] = None

    # -- one poll ------------------------------------------------------------

    def _stat_once(self):
        if self.stat_site is not None:
            faults.maybe_raise(self.stat_site)
        st = os.stat(self.path)
        return st.st_mtime, st.st_size

    def _read_once(self) -> str:
        # A torn/failed read of the zone file: retry_call absorbs a
        # transient one; persistent failures feed the breaker below.
        faults.maybe_raise(self.read_site)
        with open(self.path, "r", encoding="utf-8") as handle:
            return handle.read()

    def prime(self) -> None:
        """Record the file's current identity without reloading — for a
        server that already booted from this file's contents."""
        try:
            self._last_mtime, self._last_size = self._stat_once()
        except OSError:
            pass

    def poll_once(self) -> Optional[R]:
        """Submit the file if it changed. Returns the sink's result for a
        processed change, None for no-change, an open breaker or an IO or
        parse failure (failures feed the breaker and ``last_error``)."""
        if self.breaker.is_open:
            return None
        self.polls += 1
        self.attempts = 1
        try:
            (mtime, size), self.attempts = retry_call(
                self._stat_once, self.retry, sleep=self._sleep
            )
        except OSError as exc:
            return self._fail(f"stat failed: {exc}")
        if (mtime, size) == (self._last_mtime, self._last_size):
            self.breaker.record_success()
            return None
        try:
            text, read_attempts = retry_call(self._read_once, self.retry,
                                             sleep=self._sleep)
            self.attempts += read_attempts - 1
            zone = parse_zone_text(text)
        except (OSError, ValueError) as exc:
            # Identity deliberately NOT committed: the next poll sees the
            # change again and retries, so a torn read heals once the
            # writer finishes and a persistently bad file keeps feeding
            # the breaker instead of being marked as seen.
            return self._fail(f"zone reload failed: {exc}")
        self._last_mtime, self._last_size = mtime, size
        self.breaker.record_success()
        self.last_error = None
        self.reloads += 1
        self.last_result = self.submit(zone)
        return self.last_result

    def _fail(self, error: str) -> None:
        self.breaker.record_failure()
        self.failures += 1
        self.last_error = error
        return None

    # -- the loop ------------------------------------------------------------

    async def run(self, interval: float = 1.0,
                  max_reloads: Optional[int] = None) -> int:
        """Async poll loop (each poll runs in a worker thread — the sink
        verifies synchronously). Exits when the breaker opens or after
        ``max_reloads`` processed changes; returns the reload count."""
        import asyncio

        processed = 0
        while not self.breaker.is_open:
            result = await asyncio.to_thread(self.poll_once)
            if result is not None:
                processed += 1
                if max_reloads is not None and processed >= max_reloads:
                    break
            await asyncio.sleep(interval)
        return processed

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "polls": self.polls,
            "reloads": self.reloads,
            "failures": self.failures,
            "breaker": self.breaker.state,
            "last_error": self.last_error,
        }
