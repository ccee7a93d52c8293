"""Fault drill: drive every injection site to a typed verdict.

The resilience contract is that each site in
:data:`repro.resilience.faults.KNOWN_SITES` degrades to a *typed* outcome —
a :mod:`repro.resilience.verdicts` kind, a counted cache miss, or a watch
health event — never an uncaught exception. :func:`fault_drill` proves it
by running one small scenario per site under a scripted
:class:`~repro.resilience.faults.FaultPlan` and recording what the system
reported. The CI smoke job runs this via ``python -m repro faultdrill``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import List

from repro.resilience import faults
from repro.resilience import verdicts as verdicts_mod


@dataclass
class SiteOutcome:
    """What one injection site degraded to."""

    site: str
    fired: int
    verdict: str
    detail: str
    typed: bool  # the outcome was a typed verdict, not an escape

    def describe(self) -> str:
        status = "ok" if self.typed else "ESCAPED"
        return (
            f"{self.site:16s} fired={self.fired} -> {self.verdict} "
            f"[{status}] {self.detail}"
        )


@dataclass
class FaultDrillReport:
    """One drill over every known site."""

    version: str
    outcomes: List[SiteOutcome] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Every site fired at least once and produced a typed outcome."""
        covered = {o.site for o in self.outcomes}
        return set(faults.KNOWN_SITES) <= covered and all(
            o.typed and o.fired > 0 for o in self.outcomes
        )

    def describe(self) -> str:
        lines = [f"fault drill ({self.version}): "
                 f"{'clean' if self.clean else 'FAILURES'}"]
        lines.extend("  " + o.describe() for o in self.outcomes)
        return "\n".join(lines)


def _drill_compile(version: str) -> SiteOutcome:
    from repro.core.campaign import run_campaign
    from repro.core.options import VerifyOptions
    from repro.zonegen import corpus

    plan = faults.FaultPlan.scripted({faults.SITE_COMPILE: 1})
    with faults.active(plan):
        report = run_campaign(
            version, zones=[corpus.minimal_zone()],
            options=VerifyOptions(smoke_first=False),
        )
    unit = report.verdicts[0]
    return SiteOutcome(
        faults.SITE_COMPILE,
        plan.fired.get(faults.SITE_COMPILE, 0),
        f"{unit.verdict}({unit.error_class})",
        unit.error_detail,
        typed=unit.verdict == verdicts_mod.ERROR
        and unit.error_class == verdicts_mod.ERR_COMPILE,
    )


def _drill_solver(version: str) -> SiteOutcome:
    from repro.core.pipeline import VerificationSession
    from repro.zonegen import corpus

    # Every check degrades to UNKNOWN; the pipeline must report an
    # UNKNOWN verdict instead of claiming a proof.
    plan = faults.FaultPlan.scripted({faults.SITE_SOLVER: 10_000})
    with faults.active(plan):
        result = VerificationSession(corpus.minimal_zone(), version).verify()
    reason = result.unknown_reason or "-"
    return SiteOutcome(
        faults.SITE_SOLVER,
        plan.fired.get(faults.SITE_SOLVER, 0),
        f"{result.verdict}({reason})",
        f"{result.solver_checks} checks degraded",
        typed=result.verdict == verdicts_mod.UNKNOWN,
    )


def _drill_cache(site: str, version: str) -> SiteOutcome:
    from repro.core.options import VerifyOptions
    from repro.incremental.cache import SummaryCache
    from repro.incremental.engine import verify_cached
    from repro.zonegen import corpus

    zone = corpus.minimal_zone()
    options = VerifyOptions()
    with tempfile.TemporaryDirectory() as tmp:
        cache = SummaryCache(cache_dir=tmp)
        if site == faults.SITE_CACHE_CORRUPT:
            # Corruption fires on *disk* reads, so the entry must exist
            # first — published by a separate cache instance, or the
            # in-memory layer would satisfy the lookup.
            verify_cached(zone, version, options, SummaryCache(cache_dir=tmp))
        plan = faults.FaultPlan.scripted({site: 2})
        with faults.active(plan):
            result = verify_cached(zone, version, options, cache)
        stats = cache.stats()
    counter = "corrupt" if site == faults.SITE_CACHE_CORRUPT else "io_errors"
    return SiteOutcome(
        site,
        plan.fired.get(site, 0),
        result.verdict,
        f"cache {counter}={stats[counter]}",
        typed=result.verdict == verdicts_mod.VERIFIED and stats[counter] > 0,
    )


def _drill_watch(site: str, version: str) -> SiteOutcome:
    import os

    from repro.dns.zonefile import zone_to_text
    from repro.incremental.watch import WatchDaemon
    from repro.resilience.supervise import RetryPolicy
    from repro.zonegen import corpus

    retry = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "zone.db")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(zone_to_text(corpus.minimal_zone()))
        daemon = WatchDaemon(
            path, version=version, retry=retry, sleep=lambda _delay: None,
            log=lambda _line: None,
        )
        if site == faults.SITE_WATCH_STAT:
            # Outlast the retry budget: the poll must degrade to a typed
            # failure event, not an escaped OSError.
            plan = faults.FaultPlan.scripted({site: 2})
        else:
            # One transient read fault: the retry must absorb it and the
            # poll still verify the zone.
            plan = faults.FaultPlan.scripted({site: 1})
        with faults.active(plan):
            event = daemon.poll_once()
    fired = plan.fired.get(site, 0)
    if event is None:
        return SiteOutcome(site, fired, "no-event", "", typed=False)
    if event.error is not None:
        return SiteOutcome(
            site, fired, f"{verdicts_mod.ERROR}({verdicts_mod.ERR_IO})",
            event.error, typed=site == faults.SITE_WATCH_STAT,
        )
    return SiteOutcome(
        site, fired, event.outcome.result.verdict,
        f"recovered after {event.health.get('attempts')} attempt(s)",
        typed=site == faults.SITE_WATCH_READ
        and event.outcome.result.verdict == verdicts_mod.VERIFIED,
    )


class ScriptedUdpSocket:
    """A stand-in for the server's non-blocking UDP socket, to drive
    :meth:`~repro.serve.server.ZoneServer.read_datagrams` without a
    network. ``reads`` is what successive ``recvfrom`` calls yield: a
    ``(data, addr)`` pair is returned, an exception instance is raised;
    once they run out, ``recvfrom`` raises :class:`BlockingIOError` as a
    drained socket does. ``send_error``, if given, is raised by every
    ``sendto``; otherwise ``sent`` records each ``(data, addr)``."""

    def __init__(self, reads, send_error=None):
        self._reads = list(reads)
        self.send_error = send_error
        self.sent = []

    def recvfrom(self, _bufsize):
        if not self._reads:
            raise BlockingIOError
        item = self._reads.pop(0)
        if isinstance(item, BaseException):
            raise item
        return item

    def sendto(self, data, addr) -> None:
        if self.send_error is not None:
            raise self.send_error
        self.sent.append((data, addr))


def _drill_serve_udp(site: str, version: str) -> SiteOutcome:
    from repro.dns.message import Query
    from repro.dns.rtypes import RRType
    from repro.dns.wire import build_query
    from repro.serve.server import ZoneServer
    from repro.zonegen import corpus

    zone = corpus.minimal_zone()
    server = ZoneServer(zone, version, status_port=None)
    wire = build_query(0x1234, Query(zone.origin, RRType.SOA))
    plan = faults.FaultPlan.scripted({site: 1})
    with faults.active(plan):
        if site == faults.SITE_SERVE_UDP_RECV:
            reply = server.handle_packet(wire, "198.51.100.1", "udp")
            ok = reply == b"" and server.metrics.dropped_fault == 1
            verdict = "dropped"
            detail = f"dropped_fault={server.metrics.dropped_fault}"
        else:  # serve.udp.send: the reply is built, delivery fails
            sock = ScriptedUdpSocket([(wire, ("198.51.100.1", 12345))])
            server.read_datagrams(sock)
            ok = server.metrics.send_failures == 1 and not sock.sent
            verdict = "reply-lost"
            detail = f"send_failures={server.metrics.send_failures}"
    conserved = bool(server.metrics.conservation()["conserved"])
    return SiteOutcome(site, plan.fired.get(site, 0), verdict, detail,
                       typed=ok and conserved)


def _drill_serve_tcp(site: str, version: str) -> SiteOutcome:
    import asyncio
    import struct

    from repro.dns.message import Query
    from repro.dns.rtypes import RRType
    from repro.dns.wire import build_query
    from repro.serve.server import ZoneServer
    from repro.zonegen import corpus

    zone = corpus.minimal_zone()
    wire = build_query(0x2345, Query(zone.origin, RRType.SOA))
    plan = faults.FaultPlan.scripted({site: 1})

    async def scenario():
        server = ZoneServer(zone, version, status_port=None)
        await server.start()
        try:
            with faults.active(plan):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(struct.pack("!H", len(wire)) + wire)
                await writer.drain()
                try:
                    # EOF — or RST, when the server broke off with our
                    # frame still unread in its receive buffer.
                    data = await reader.read(65536)
                except ConnectionError:
                    data = b""
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        finally:
            await server.stop()
        return server.metrics, data

    metrics, data = asyncio.run(scenario())
    if site == faults.SITE_SERVE_TCP_READ:
        ok = metrics.tcp_read_faults == 1 and data == b""
        detail = f"tcp_read_faults={metrics.tcp_read_faults}"
    else:  # serve.tcp.write: reply built and counted, write failed
        ok = metrics.tcp_disconnects == 1 and data == b""
        detail = f"tcp_disconnects={metrics.tcp_disconnects}"
    conserved = bool(metrics.conservation()["conserved"])
    return SiteOutcome(site, plan.fired.get(site, 0), "connection-closed",
                       detail, typed=ok and conserved)


def _drill_serve_reload(version: str) -> SiteOutcome:
    import os

    from repro.dns.zonefile import zone_to_text
    from repro.resilience.supervise import RetryPolicy
    from repro.serve.gate import PublishGate
    from repro.serve.reload import ZoneReloader
    from repro.serve.snapshot import build_snapshot
    from repro.zonegen import corpus

    site = faults.SITE_SERVE_RELOAD_READ
    zone = corpus.minimal_zone()
    retry = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "zone.db")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(zone_to_text(zone))
        gate = PublishGate(build_snapshot(zone, version))
        reloader = ZoneReloader(path, gate.reload_sink(path), retry=retry,
                                sleep=lambda _delay: None)
        # One transient read fault: the retry must absorb it and the
        # reload still verify and publish.
        plan = faults.FaultPlan.scripted({site: 1})
        with faults.active(plan):
            result = reloader.poll_once()
    fired = plan.fired.get(site, 0)
    if result is None:
        return SiteOutcome(site, fired, "no-result",
                           reloader.last_error or "", typed=False)
    return SiteOutcome(
        site, fired, result.verdict,
        f"absorbed by retry, reloads={reloader.reloads}",
        typed=result.verdict == verdicts_mod.VERIFIED
        and reloader.failures == 0,
    )


def _drill_serve_gate(site: str, version: str) -> SiteOutcome:
    import os

    from repro.resilience import verdicts
    from repro.serve.gate import PublishGate
    from repro.serve.journal import PublishJournal
    from repro.serve.snapshot import build_snapshot
    from repro.zonegen import corpus

    zone = corpus.minimal_zone()
    with tempfile.TemporaryDirectory() as tmp:
        journal = PublishJournal(os.path.join(tmp, "publish.journal"))
        gate = PublishGate(build_snapshot(zone, version), journal=journal)
        before = gate.snapshot
        plan = faults.FaultPlan.scripted({site: 1})
        with faults.active(plan):
            result = gate.submit(zone)
        held_clean = (
            not result.accepted
            and result.verdict == verdicts.ERROR
            and gate.snapshot is before
            and gate.alarm is not None
        )
        if site == faults.SITE_SERVE_GATE_VERIFY:
            typed = held_clean and result.reason == verdicts.ERR_INJECTED
            detail = "prover crash: typed hold, snapshot untouched"
        elif site == faults.SITE_SERVE_SNAPSHOT_SWAP:
            # Journal-before-swap means the failed swap leaves a record
            # the serving state never reached — legal (journal is an
            # upper bound), and the retry below reconciles it.
            typed = held_clean and journal.head() is not None
            detail = "swap failed post-append: journal ahead (legal)"
        else:  # serve.journal.write
            typed = (
                held_clean
                and result.reason == verdicts.ERR_IO
                and gate.journal_failures == 1
                and journal.head() is None
            )
            detail = f"torn append held publish, journal_failures={gate.journal_failures}"
        # With the fault gone the same delta must publish cleanly —
        # degradation, not wedging.
        recovered = gate.submit(zone)
        typed = typed and recovered.accepted
    return SiteOutcome(site, plan.fired.get(site, 0), result.verdict, detail,
                       typed=typed)


def fault_drill(version: str = "verified") -> FaultDrillReport:
    """Exercise every known injection site against ``version``."""
    report = FaultDrillReport(version)
    report.outcomes.append(_drill_compile(version))
    report.outcomes.append(_drill_solver(version))
    for site in (faults.SITE_CACHE_READ, faults.SITE_CACHE_WRITE,
                 faults.SITE_CACHE_CORRUPT):
        report.outcomes.append(_drill_cache(site, version))
    for site in (faults.SITE_WATCH_STAT, faults.SITE_WATCH_READ):
        report.outcomes.append(_drill_watch(site, version))
    for site in (faults.SITE_SERVE_UDP_RECV, faults.SITE_SERVE_UDP_SEND):
        report.outcomes.append(_drill_serve_udp(site, version))
    for site in (faults.SITE_SERVE_TCP_READ, faults.SITE_SERVE_TCP_WRITE):
        report.outcomes.append(_drill_serve_tcp(site, version))
    report.outcomes.append(_drill_serve_reload(version))
    for site in (faults.SITE_SERVE_GATE_VERIFY,
                 faults.SITE_SERVE_SNAPSHOT_SWAP,
                 faults.SITE_SERVE_JOURNAL_WRITE):
        report.outcomes.append(_drill_serve_gate(site, version))
    return report
