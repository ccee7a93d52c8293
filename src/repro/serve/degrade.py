"""Graceful degradation under overload: a five-rung ladder with hysteresis.

A server that verifies every zone change is still only as trustworthy as
its behaviour at saturation — an overloaded event loop answers *nobody*
correctly. :class:`OverloadController` watches cheap load signals (the
sliding-window qps from :class:`~repro.serve.metrics.ServerMetrics`,
in-flight TCP connections, recent SERVFAIL rate) and walks the serving
path down a ladder of progressively cheaper behaviours:

``NORMAL``
    full service.
``SHED_SELFCHECK``
    differential self-check sampling is suspended — the optional
    background load goes first, client-visible behaviour is untouched.
``TRUNCATE``
    UDP queries get a header+question reply with TC=1 (RFC 1035 4.2.1),
    pushing well-behaved clients onto TCP where the kernel's accept queue
    provides back-pressure the datagram socket cannot. Building the
    truncated reply skips the engine walk and answer rendering (~60µs →
    ~15µs in-process on the evaluation zone). A question the snapshot
    has answered before is an answer-memo hit: it runs no engine, so it
    is answered in full ahead of this rung and the next.
``SERVFAIL_SHED``
    the lowest-priority clients (a stable hash of the client address —
    deterministic, so one client flaps between polls rather than all of
    them) get a header-only SERVFAIL; the rest still get truncated or
    full service.
``DROP``
    queries are dropped unanswered. The transport still drains the
    socket, so the kernel buffer cannot wedge.

Escalation is immediate (overload is *now*); de-escalation is hysteretic:
pressure must stay below the rung's exit threshold — strictly less than
its entry threshold — for ``hold_seconds`` before the controller steps
down one rung. Every transition is counted and the full state is exposed
on the JSON status channel via :meth:`OverloadController.as_dict`.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# -- the ladder --------------------------------------------------------------

NORMAL = 0
SHED_SELFCHECK = 1
TRUNCATE = 2
SERVFAIL_SHED = 3
DROP = 4

LEVEL_NAMES: Tuple[str, ...] = (
    "NORMAL",
    "SHED_SELFCHECK",
    "TRUNCATE",
    "SERVFAIL_SHED",
    "DROP",
)


@dataclass(frozen=True)
class Rung:
    """One degradation level and its pressure thresholds.

    ``enter`` is the pressure at which the controller escalates *to* this
    level; ``exit`` (< enter) is the pressure it must stay below for the
    hold period before stepping back down *from* it.
    """

    level: int
    enter: float
    exit: float

    def __post_init__(self):
        if not self.exit < self.enter:
            raise ValueError(
                f"rung {LEVEL_NAMES[self.level]}: exit threshold "
                f"{self.exit} must be below enter threshold {self.enter}"
            )


#: Pressure 1.0 == running exactly at configured capacity. Self-check
#: sampling goes at capacity, truncation at 1.5x, shedding at 2.5x and
#: the floor drops out at 4x.
DEFAULT_LADDER: Tuple[Rung, ...] = (
    Rung(SHED_SELFCHECK, enter=1.0, exit=0.7),
    Rung(TRUNCATE, enter=1.5, exit=1.0),
    Rung(SERVFAIL_SHED, enter=2.5, exit=1.8),
    Rung(DROP, enter=4.0, exit=3.0),
)

#: Fraction of clients counted "lowest-priority" at SERVFAIL_SHED.
SHED_FRACTION = 0.75


def client_rank(client: str) -> float:
    """A stable rank in [0, 1) for one client address. Deterministic so a
    given client's fate is the same on every packet at a given level —
    shedding flickers per *client*, never per *packet*."""
    return (zlib.crc32(client.encode("utf-8", "replace")) % 1024) / 1024.0


@dataclass(frozen=True)
class LoadSignals:
    """One observation of the signals the controller watches."""

    qps: float = 0.0
    inflight: int = 0
    error_rate: float = 0.0  # recent SERVFAIL fraction, [0, 1]


class OverloadController:
    """Walk the degradation ladder from load signals, with hysteresis."""

    def __init__(
        self,
        qps_capacity: float,
        inflight_capacity: int = 64,
        error_capacity: float = 0.5,
        ladder: Tuple[Rung, ...] = DEFAULT_LADDER,
        hold_seconds: float = 1.0,
        interval: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ):
        if qps_capacity <= 0:
            raise ValueError("qps_capacity must be positive")
        self.qps_capacity = float(qps_capacity)
        self.inflight_capacity = int(inflight_capacity)
        self.error_capacity = float(error_capacity)
        self.ladder = tuple(sorted(ladder, key=lambda r: r.level))
        if [r.level for r in self.ladder] != list(range(1, len(self.ladder) + 1)):
            raise ValueError("ladder must cover levels 1..N contiguously")
        self.hold_seconds = hold_seconds
        self.interval = interval
        self._clock = clock
        self.level = NORMAL
        self.pressure = 0.0
        self._below_exit_since: Optional[float] = None
        self._last_tick = clock() - interval  # first tick evaluates
        self.transitions: Dict[str, int] = {}
        self.escalations = 0
        self.de_escalations = 0

    # -- level math ----------------------------------------------------------

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level]

    def compute_pressure(self, signals: LoadSignals) -> float:
        """The worst of the normalized signals: pressure 1.0 means some
        resource is running exactly at capacity."""
        return max(
            signals.qps / self.qps_capacity,
            signals.inflight / max(self.inflight_capacity, 1),
            signals.error_rate / self.error_capacity,
        )

    def _target_up(self, pressure: float) -> int:
        """Highest rung whose entry threshold the pressure has crossed."""
        target = NORMAL
        for rung in self.ladder:
            if pressure >= rung.enter:
                target = rung.level
        return target

    def update(self, signals: LoadSignals) -> int:
        """Feed one observation; returns the (possibly new) level.

        Escalation jumps straight to the highest rung the pressure
        justifies. De-escalation steps down one rung at a time, and only
        after the pressure has stayed below the current rung's exit
        threshold for ``hold_seconds`` continuously.
        """
        now = self._clock()
        self.pressure = pressure = self.compute_pressure(signals)
        target = self._target_up(pressure)
        if target > self.level:
            self._transition(self.level, target)
            self._below_exit_since = None
            return self.level
        if self.level == NORMAL:
            return self.level
        rung = self.ladder[self.level - 1]
        if pressure >= rung.exit:
            self._below_exit_since = None  # hysteresis clock resets
            return self.level
        if self._below_exit_since is None:
            self._below_exit_since = now
        if now - self._below_exit_since >= self.hold_seconds:
            self._transition(self.level, self.level - 1)
            self._below_exit_since = now if self.level > NORMAL else None
        return self.level

    def _transition(self, old: int, new: int) -> None:
        key = f"{LEVEL_NAMES[old]}->{LEVEL_NAMES[new]}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        if new > old:
            self.escalations += 1
        else:
            self.de_escalations += 1
        self.level = new

    # -- per-query entry points ---------------------------------------------

    def tick(self, metrics, inflight: int = 0) -> int:
        """Rate-limited update from live server state (the per-query hook:
        at most one pressure evaluation per ``interval`` seconds)."""
        now = self._clock()
        if now - self._last_tick < self.interval:
            return self.level
        self._last_tick = now
        return self.update(LoadSignals(
            qps=metrics.qps(),
            inflight=inflight,
            error_rate=metrics.recent_error_rate(),
        ))

    def should_shed(self, client: str) -> bool:
        """At SERVFAIL_SHED, is this client in the shed set?"""
        return client_rank(client) < SHED_FRACTION

    # -- status --------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "level_name": self.level_name,
            "pressure": round(self.pressure, 4),
            "qps_capacity": self.qps_capacity,
            "inflight_capacity": self.inflight_capacity,
            "escalations": self.escalations,
            "de_escalations": self.de_escalations,
            "transitions": dict(sorted(self.transitions.items())),
        }


def ladder_from_levels(levels: List[Tuple[int, float, float]]) -> Tuple[Rung, ...]:
    """Build a ladder from (level, enter, exit) triples (tests, tuning)."""
    return tuple(Rung(level, enter, exit) for level, enter, exit in levels)
