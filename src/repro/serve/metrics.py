"""Serving-plane counters: queries, drops, rcodes, and a qps window.

Plain integer counters (atomic enough under the GIL for the single-loop
asyncio server; the only cross-thread writer is the publish gate, which
touches its own fields). ``qps`` is computed over a window of recent
0.1 s ticks so the status channel reports current load, not lifetime
average; the window is a fixed ring of per-tick counters, so it costs the
same memory at 10 qps as at 100k. The clock is injectable for
deterministic tests.

Conservation
------------

Every query that enters :meth:`count_query` leaves through exactly one
exit counter: a built response (``responses``, which includes truncated
and shed replies — the client got *something*) or one of the dropped
buckets (malformed, rate-limited, overload-shed, injected fault).
:meth:`conservation` checks ``queries == responses + dropped``; the
chaos drill asserts it after every soak, so a new serving branch that
forgets its counter is caught by CI, not by an operator's dashboard
silently leaking queries. (``send_failures`` is deliberately outside the
equation: the reply was built and counted, only delivery failed.
TCP frames lost to a read fault never reached the query path, so they
are conserved at zero on both sides.)
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict

#: Window length for the qps figure, seconds.
QPS_WINDOW_SECONDS = 5.0

#: Granularity of the qps window: queries are counted per tick of
#: 1/QPS_TICKS_PER_SECOND s, and a query leaves the window together with
#: the rest of its tick. (Ticks are taken as ``int(now * rate)``, not
#: ``now // 0.1``: float floor division by 0.1 puts 5.0 in tick 49.)
QPS_TICKS_PER_SECOND = 10

#: Sample size for the recent-SERVFAIL-rate overload signal.
ERROR_RATE_WINDOW = 128


class ServerMetrics:
    """Counters for one :class:`~repro.serve.server.ZoneServer`."""

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 window: float = QPS_WINDOW_SECONDS):
        self._clock = clock
        self._window = window
        slots = max(1, round(window * QPS_TICKS_PER_SECOND))
        #: Ring of per-tick query counts; slot ``t % slots`` holds tick
        #: ``t`` when ``_tick_of[slot] == t`` and is stale otherwise.
        self._tick_counts = [0] * slots
        self._tick_of = [-1] * slots
        self._recent_errors: Deque[bool] = deque(maxlen=ERROR_RATE_WINDOW)
        self.started_at = clock()
        self.queries_udp = 0
        self.queries_tcp = 0
        self.responses = 0
        #: Responses served from the snapshot's answer memo (a subset of
        #: ``responses``; hits ÷ responses is the memo's hit rate).
        self.answer_cache_hits = 0
        self.noerror = 0
        self.nxdomain = 0
        self.formerr = 0
        self.servfail = 0
        self.engine_crashes = 0
        self.decode_failures = 0
        self.encode_failures = 0
        self.dropped_malformed = 0
        self.dropped_ratelimit = 0
        self.dropped_overload = 0
        self.dropped_fault = 0
        self.send_failures = 0
        self.truncated = 0
        self.shed_servfail = 0
        self.selfcheck_suspended = 0
        self.tcp_connections = 0
        self.tcp_disconnects = 0
        self.tcp_idle_timeouts = 0
        self.tcp_read_faults = 0

    # -- recording ----------------------------------------------------------

    def count_query(self, transport: str) -> None:
        if transport == "tcp":
            self.queries_tcp += 1
        else:
            self.queries_udp += 1
        tick = int(self._clock() * QPS_TICKS_PER_SECOND)
        slot = tick % len(self._tick_of)
        if self._tick_of[slot] == tick:
            self._tick_counts[slot] += 1
        else:
            self._tick_of[slot] = tick
            self._tick_counts[slot] = 1

    def count_rcode(self, rcode_value: int) -> None:
        self.responses += 1
        self._recent_errors.append(rcode_value == 2)
        if rcode_value == 0:
            self.noerror += 1
        elif rcode_value == 3:
            self.nxdomain += 1
        elif rcode_value == 2:
            self.servfail += 1
        elif rcode_value == 1:
            self.formerr += 1

    # -- reading ------------------------------------------------------------

    @property
    def queries(self) -> int:
        return self.queries_udp + self.queries_tcp

    @property
    def dropped(self) -> int:
        """Queries that entered the path and left without a reply."""
        return (
            self.dropped_malformed
            + self.dropped_ratelimit
            + self.dropped_overload
            + self.dropped_fault
        )

    def qps(self) -> float:
        """Queries per second over the window: the current tick and the
        ones before it, one window's worth. Divides by the full window
        length, not the observed span: with one or two fresh samples the
        span is near zero and count/span would explode to absurd rates
        (and slam the overload ladder to DROP on the first packet of a
        quiet second)."""
        tick = int(self._clock() * QPS_TICKS_PER_SECOND)
        oldest = tick - len(self._tick_of)
        total = sum(count for count, counted in
                    zip(self._tick_counts, self._tick_of) if counted > oldest)
        return total / self._window

    def recent_error_rate(self) -> float:
        """SERVFAIL fraction over the last ``ERROR_RATE_WINDOW`` replies
        (an overload-controller input: a saturated or crashing engine
        shows up here before it shows up in qps)."""
        if not self._recent_errors:
            return 0.0
        return sum(self._recent_errors) / len(self._recent_errors)

    def conservation(self) -> Dict[str, object]:
        """The queries-in == replies+drops-out ledger, with its verdict."""
        received = self.queries
        accounted = self.responses + self.dropped
        return {
            "received": received,
            "answered": self.responses,
            "dropped": self.dropped,
            "accounted": accounted,
            "conserved": received == accounted,
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "queries_udp": self.queries_udp,
            "queries_tcp": self.queries_tcp,
            "responses": self.responses,
            "answer_cache_hits": self.answer_cache_hits,
            "noerror": self.noerror,
            "nxdomain": self.nxdomain,
            "formerr": self.formerr,
            "servfail": self.servfail,
            "engine_crashes": self.engine_crashes,
            "decode_failures": self.decode_failures,
            "encode_failures": self.encode_failures,
            "dropped_malformed": self.dropped_malformed,
            "dropped_ratelimit": self.dropped_ratelimit,
            "dropped_overload": self.dropped_overload,
            "dropped_fault": self.dropped_fault,
            "send_failures": self.send_failures,
            "truncated": self.truncated,
            "shed_servfail": self.shed_servfail,
            "selfcheck_suspended": self.selfcheck_suspended,
            "tcp_connections": self.tcp_connections,
            "tcp_disconnects": self.tcp_disconnects,
            "tcp_idle_timeouts": self.tcp_idle_timeouts,
            "tcp_read_faults": self.tcp_read_faults,
            "conservation": self.conservation(),
            "qps": round(self.qps(), 3),
            "uptime_seconds": round(self._clock() - self.started_at, 3),
        }
