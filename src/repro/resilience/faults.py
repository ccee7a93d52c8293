"""Deterministic fault injection at named sites.

Every degraded path in the runtime is guarded by a *site*: a string naming
one failure the code claims to survive. Production code consults the
active :class:`FaultPlan` at each site (a no-op when none is installed,
the default); the test suite and the CI smoke job install seeded or
scripted plans and assert that every site degrades to a typed verdict
instead of an uncaught exception.

Known sites and what firing them simulates:

======================  ===================================================
``compile``             GoPy → AbsLLVM compilation fails (``ERROR(compile)``)
``solver.exhaust``      the SAT backend gives up: ``check()`` returns UNKNOWN
``cache.read``          cache entry read raises ``OSError`` (counted, a miss)
``cache.write``         cache entry publish raises ``OSError`` (degrades to RAM)
``cache.corrupt``       cache entry is truncated on disk (evicted, a miss)
``watch.stat``          zone-file ``stat`` raises ``OSError`` (retried/reported)
``watch.read``          zone-file read raises ``OSError`` (retried/reported)
``serve.udp.recv``      datagram lost at the socket layer (dropped, counted)
``serve.udp.send``      reply ``sendto`` raises ``OSError`` (counted)
``serve.tcp.read``      TCP frame read raises ``OSError`` (connection closed)
``serve.tcp.write``     TCP reply write raises ``OSError`` (connection closed)
``serve.reload.read``   serving zone-file read raises ``OSError`` (retried)
``serve.gate.verify``   gate verification blows up (``ERROR`` hold, alarm)
``serve.snapshot.swap`` snapshot build/swap fails post-verify (hold, alarm)
``serve.journal.write`` publish-journal append tears + raises (publish held)
======================  ===================================================

Plans are deterministic by construction: seeded plans draw from their own
``random.Random(seed)`` in consult order, scripted plans fire a fixed
number of times (or follow an explicit bool sequence) per site. Both
record every consult and fire, so a drill can prove coverage.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, Iterable, Optional, Union

from repro.resilience.verdicts import (
    ERR_CACHE_IO,
    ERR_COMPILE,
    ERR_INJECTED,
    ERR_IO,
)

SITE_COMPILE = "compile"
SITE_SOLVER = "solver.exhaust"
SITE_CACHE_READ = "cache.read"
SITE_CACHE_WRITE = "cache.write"
SITE_CACHE_CORRUPT = "cache.corrupt"
SITE_WATCH_STAT = "watch.stat"
SITE_WATCH_READ = "watch.read"
SITE_SERVE_UDP_RECV = "serve.udp.recv"
SITE_SERVE_UDP_SEND = "serve.udp.send"
SITE_SERVE_TCP_READ = "serve.tcp.read"
SITE_SERVE_TCP_WRITE = "serve.tcp.write"
SITE_SERVE_RELOAD_READ = "serve.reload.read"
SITE_SERVE_GATE_VERIFY = "serve.gate.verify"
SITE_SERVE_SNAPSHOT_SWAP = "serve.snapshot.swap"
SITE_SERVE_JOURNAL_WRITE = "serve.journal.write"

#: The serving-plane subset (the sites ``chaosdrill --serve`` fires).
SERVE_SITES = (
    SITE_SERVE_UDP_RECV,
    SITE_SERVE_UDP_SEND,
    SITE_SERVE_TCP_READ,
    SITE_SERVE_TCP_WRITE,
    SITE_SERVE_RELOAD_READ,
    SITE_SERVE_GATE_VERIFY,
    SITE_SERVE_SNAPSHOT_SWAP,
    SITE_SERVE_JOURNAL_WRITE,
)

KNOWN_SITES = (
    SITE_COMPILE,
    SITE_SOLVER,
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_CACHE_CORRUPT,
    SITE_WATCH_STAT,
    SITE_WATCH_READ,
) + SERVE_SITES

#: The error taxonomy a raising site maps to (behavioral sites — solver
#: exhaustion, cache corruption — do not raise and are absent here).
SITE_TAXONOMY = {
    SITE_COMPILE: ERR_COMPILE,
    SITE_CACHE_READ: ERR_CACHE_IO,
    SITE_CACHE_WRITE: ERR_CACHE_IO,
    SITE_WATCH_STAT: ERR_IO,
    SITE_WATCH_READ: ERR_IO,
    SITE_SERVE_UDP_RECV: ERR_IO,
    SITE_SERVE_UDP_SEND: ERR_IO,
    SITE_SERVE_TCP_READ: ERR_IO,
    SITE_SERVE_TCP_WRITE: ERR_IO,
    SITE_SERVE_RELOAD_READ: ERR_IO,
    # The gate-verify site simulates the *prover* failing, not IO: it
    # raises a tagged InjectedFault so classify_error files the hold
    # under ERROR(injected), distinguishable from a real disk problem.
    SITE_SERVE_GATE_VERIFY: ERR_INJECTED,
    SITE_SERVE_SNAPSHOT_SWAP: ERR_INJECTED,
    SITE_SERVE_JOURNAL_WRITE: ERR_IO,
}


class InjectedFault(RuntimeError):
    """A fault fired at a raising site; carries its taxonomy so
    classification matches the real failure it simulates."""

    def __init__(self, site: str, taxonomy: str):
        super().__init__(f"injected fault at site {site!r}")
        self.site = site
        self.taxonomy = taxonomy

    def __reduce__(self):
        # ``args`` holds only the message, so the default reduction cannot
        # rebuild the fault in another process (a pool worker's parent).
        return type(self), (self.site, self.taxonomy)


class FaultPlan:
    """A deterministic schedule of faults.

    ``script`` maps site → either an int (fire on the first N consults of
    that site) or an iterable of bools consumed consult-by-consult (and
    False once drained). ``seed``/``rate`` instead fire each consult with
    probability ``rate`` from a dedicated PRNG — reproducible for a given
    seed and consult order. ``sites`` restricts a seeded plan to a subset.
    """

    def __init__(
        self,
        script: Optional[Dict[str, Union[int, Iterable[bool]]]] = None,
        seed: Optional[int] = None,
        rate: float = 0.0,
        sites: Optional[Iterable[str]] = None,
    ):
        self._script: Dict[str, list] = {}
        for site, spec in (script or {}).items():
            if site not in KNOWN_SITES:
                raise ValueError(f"unknown fault site {site!r}")
            if isinstance(spec, int):
                self._script[site] = [True] * spec
            else:
                self._script[site] = list(spec)
        self._rng = random.Random(seed) if seed is not None else None
        self._rate = rate
        self._sites = frozenset(sites) if sites is not None else None
        self.consults: Dict[str, int] = {}
        self.fired: Dict[str, int] = {}

    @classmethod
    def seeded(cls, seed: int, rate: float = 0.1,
               sites: Optional[Iterable[str]] = None) -> "FaultPlan":
        return cls(seed=seed, rate=rate, sites=sites)

    @classmethod
    def scripted(cls, script: Dict[str, Union[int, Iterable[bool]]]) -> "FaultPlan":
        return cls(script=script)

    # -- decisions ---------------------------------------------------------

    def consult(self, site: str) -> bool:
        """Record one consult of ``site``; True when the fault fires."""
        self.consults[site] = self.consults.get(site, 0) + 1
        fire = False
        queue = self._script.get(site)
        if queue:
            fire = bool(queue.pop(0))
        elif self._rng is not None and (
            self._sites is None or site in self._sites
        ):
            fire = self._rng.random() < self._rate
        if fire:
            self.fired[site] = self.fired.get(site, 0) + 1
        return fire

    def report(self) -> Dict[str, Dict[str, int]]:
        return {"consults": dict(self.consults), "fired": dict(self.fired)}


# -- spec strings ------------------------------------------------------------

#: Mixes a unit id into a seeded spec's seed; any odd constant works, it
#: only needs to be stable so ``workers=1`` and ``workers=8`` agree.
_UNIT_SEED_STRIDE = 1_000_003


def parse_spec(spec: str) -> FaultPlan:
    """Parse the CLI/facade fault-spec string.

    ``seed:<N>[:<rate>]`` builds a seeded plan; ``site=count,...`` (e.g.
    ``cache.read=2,solver.exhaust=10``) builds a scripted one.
    """
    if spec.startswith("seed:"):
        parts = spec.split(":")
        seed = int(parts[1])
        rate = float(parts[2]) if len(parts) > 2 else 0.1
        return FaultPlan.seeded(seed, rate=rate)
    script: Dict[str, int] = {}
    for item in spec.split(","):
        site, _, count = item.partition("=")
        script[site.strip()] = int(count) if count else 1
    return FaultPlan.scripted(script)


def unit_plan(spec: Optional[str], unit_id: int) -> Optional[FaultPlan]:
    """A fresh plan for one parallel unit, deterministic in ``unit_id``.

    A whole-run plan consults sites in global order, which worker
    scheduling would scramble; instead every unit derives its own plan
    from the spec and its stable id. Seeded specs fold the id into the
    seed (each unit draws an independent but reproducible stream);
    scripted specs are re-instantiated per unit (the script fires the same
    way in every unit). Either way the injection a unit sees depends only
    on ``(spec, unit_id)`` — never on worker count or completion order.
    """
    if spec is None:
        return None
    if spec.startswith("seed:"):
        parts = spec.split(":")
        seed = int(parts[1])
        rate = float(parts[2]) if len(parts) > 2 else 0.1
        return FaultPlan.seeded(seed * _UNIT_SEED_STRIDE + unit_id, rate=rate)
    return parse_spec(spec)


# -- process-global plan registry -------------------------------------------

_active_plan: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    global _active_plan
    _active_plan = plan


def clear() -> None:
    install(None)


def active_plan() -> Optional[FaultPlan]:
    return _active_plan


@contextmanager
def active(plan: FaultPlan):
    """Install ``plan`` for the duration of a with-block."""
    previous = _active_plan
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def should_fire(site: str) -> bool:
    """Consult the active plan; always False when none is installed."""
    if _active_plan is None:
        return False
    return _active_plan.consult(site)


def maybe_raise(site: str) -> None:
    """Raise the site's canonical exception when the plan says so.

    IO-flavoured sites raise ``OSError`` (the code under test must handle
    the real thing); others raise :class:`InjectedFault` tagged with the
    site's taxonomy.
    """
    if not should_fire(site):
        return
    taxonomy = SITE_TAXONOMY.get(site, ERR_IO)
    if taxonomy in (ERR_CACHE_IO, ERR_IO):
        raise OSError(f"injected fault at site {site!r}")
    raise InjectedFault(site, taxonomy)
