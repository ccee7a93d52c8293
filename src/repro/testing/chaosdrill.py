"""Chaos soak of the live serving plane: ``repro chaosdrill --serve``.

The fault drill (:mod:`repro.testing.faultdrill`) proves each injection
site degrades typed *in isolation*; the chaos drill proves the serving
plane holds its invariants when everything fires *at once*. One soak:

- boots a :class:`~repro.serve.server.ZoneServer` (journal attached,
  overload ladder armed, self-checking on) and verifies the boot zone;
- drives a seeded query mix — valid queries over UDP and TCP, malformed
  packets, short packets, QR=1 reflections — against the live sockets;
- lands gated zone deltas mid-soak through the file reloader, including
  one bug-triggering delta the gate must hold;
- keeps a seeded :class:`~repro.resilience.faults.FaultPlan` firing
  across every ``serve.*`` site the whole time.

Afterwards it asserts the invariants that define "chaos-hardened":

``boot_verified``            the zone verified before the first packet
``no_unverified_served``     every digest observed serving was VERIFIED
``held_never_served``        the bug-triggering delta's digest never served
``journal_all_verified``     every journal record names a VERIFIED zone
``journal_covers_serving``   journal head sequence >= serving sequence
``metrics_conserved``        received == answered + dropped, exactly
``no_uncaught_exceptions``   nothing escaped to the event loop
``selfcheck_clean``          post-soak differential self-check: 0 divergences
``status_readable``          the status channel still serves valid JSON
``restart_recovers``         a fresh server over the same journal starts
                             VERIFIED (bit-identical when the journal head
                             matches; re-verified when it ran ahead)
``answer_cache_consistent``  every accepted delta's rewritten owner is
                             answered with the new rdata straight after the
                             publish (no memoised answer outlives its
                             snapshot), and every entry of the final
                             snapshot's answer memo re-derives byte-for-byte
                             through parse, resolve and build

The drill is deliberately *invariant*-based, not trace-based: fault
timing shifts with event-loop interleaving, so two soaks with one seed
may fire different counts — but the invariants must hold for every
interleaving. A violated invariant is a bug, not flakiness.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import socket
import struct
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dns.message import Query
from repro.dns.name import DnsName
from repro.dns.rtypes import RRType
from repro.dns.wire import (
    WireError,
    build_query,
    build_response,
    parse_query,
    parse_response,
)
from repro.resilience import faults
from repro.resilience import verdicts as verdicts_mod
from repro.resilience.supervise import RetryPolicy

# NOTE: repro.serve / repro.incremental / repro.zonegen are imported
# lazily inside functions — this module is re-exported by repro.testing,
# which repro.core (and through it the serve gate's verifier) imports, so
# a top-level serve import here would close an import cycle.

#: The valid half of the soak mix: exact match, apex SOA/NS, NODATA,
#: NXDOMAIN — everything the minimal zone can be asked.
QUERY_MIX: Tuple[Tuple[str, RRType], ...] = (
    ("www.example.com.", RRType.A),
    ("example.com.", RRType.SOA),
    ("example.com.", RRType.NS),
    ("ns1.example.com.", RRType.A),
    ("www.example.com.", RRType.MX),
    ("missing.example.com.", RRType.A),
)


#: The owner every benign delta rewrites, and its address in round ``n``.
REWRITTEN_OWNER = "www.example.com."


def benign_address(round_no: int) -> str:
    return f"192.0.2.{100 + round_no}"


def benign_delta_text(round_no: int) -> str:
    """A delta the gate publishes (rdata change only)."""
    from repro.zonegen.corpus import MINIMAL_ZONE_TEXT

    return MINIMAL_ZONE_TEXT.replace("192.0.2.10", benign_address(round_no))


def buggy_delta_text() -> str:
    """The wildcard-MX delta that triggers the seeded v2.0 engine bug:
    under a buggy serving version the gate must HOLD it, and its digest
    must never be observed serving."""
    from repro.zonegen.corpus import MINIMAL_ZONE_TEXT

    return MINIMAL_ZONE_TEXT + (
        "*.wild IN A 192.0.2.20\n"
        "*.wild IN MX 10 ns1.example.com.\n"
    )


def next_packet(rng: random.Random, txid: int,
                malformed_fraction: float) -> bytes:
    """One seeded packet from the mix: mostly valid, a slice of garbage."""
    roll = rng.random()
    if roll < malformed_fraction:
        shape = rng.randrange(3)
        if shape == 0:
            return b"\x01\x02"  # shorter than a header: dropped
        if shape == 1:
            # QR=1: a reflected response, dropped per RFC 1035 7.1
            return struct.pack("!HHHHHH", txid & 0xFFFF, 0x8000, 0, 0, 0, 0)
        # Header claims one question, then a truncated name: FORMERR
        return struct.pack("!HHHHHH", txid & 0xFFFF, 0, 1, 0, 0, 0) + b"\xff"
    name, qtype = QUERY_MIX[rng.randrange(len(QUERY_MIX))]
    return build_query(txid & 0xFFFF, Query(DnsName.from_text(name), qtype))


@dataclass
class ChaosDrillConfig:
    """One soak's knobs (all seeded/deterministic inputs)."""

    seed: int = 0
    queries: int = 400
    fault_rate: float = 0.02
    deltas: int = 3
    malformed_fraction: float = 0.1
    tcp_fraction: float = 0.15
    version: str = "v2.0"  # a buggy engine: the gate is what protects it
    qps_capacity: float = 800.0
    selfcheck_every: int = 16
    grace: float = 2.0
    #: Wall-clock cap on the drive loop (None = run all ``queries``).
    duration: Optional[float] = None


@dataclass
class ChaosDrillReport:
    """What one soak observed, and whether the invariants held."""

    seed: int
    version: str
    queries_sent: int
    replies_received: int
    invariants: Dict[str, bool]
    faults_fired: Dict[str, int]
    faults_consulted: Dict[str, int]
    deltas: List[Dict[str, object]]
    metrics: Dict[str, object]
    gate: Dict[str, object]
    degrade: Optional[Dict[str, object]]
    selfcheck: Dict[str, object]
    restart: Dict[str, object]
    elapsed_seconds: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(self.invariants.values())

    def describe(self) -> str:
        lines = [
            f"chaos drill (seed={self.seed}, {self.version}): "
            f"{'clean' if self.clean else 'INVARIANT VIOLATIONS'}",
            f"  sent {self.queries_sent} queries, {self.replies_received} "
            f"replies, {len(self.deltas)} deltas, "
            f"{sum(self.faults_fired.values())} faults fired "
            f"in {self.elapsed_seconds:.2f}s",
        ]
        for name, held in sorted(self.invariants.items()):
            lines.append(f"  {'ok  ' if held else 'FAIL'} {name}")
        for site, count in sorted(self.faults_fired.items()):
            lines.append(f"       fired {site} x{count}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "version": self.version,
            "clean": self.clean,
            "queries_sent": self.queries_sent,
            "replies_received": self.replies_received,
            "invariants": dict(self.invariants),
            "faults_fired": dict(self.faults_fired),
            "faults_consulted": dict(self.faults_consulted),
            "deltas": list(self.deltas),
            "metrics": self.metrics,
            "gate": self.gate,
            "degrade": self.degrade,
            "selfcheck": self.selfcheck,
            "restart": self.restart,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "failures": list(self.failures),
        }


class _DrillClient:
    """Fire-and-forget UDP sender that counts whatever comes back: a
    connected non-blocking socket whose loop reader drains replies."""

    def __init__(self, host: str, port: int):
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.sock = socket.socket(family, socket.SOCK_DGRAM)
        self.sock.connect((host, port))
        self.sock.setblocking(False)
        self.replies = 0
        asyncio.get_running_loop().add_reader(self.sock, self._read)

    def send(self, wire: bytes) -> None:
        try:
            self.sock.send(wire)
        except OSError:
            pass  # a full buffer or a queued ICMP error: the query is lost

    def _read(self) -> None:
        while True:
            try:
                self.sock.recv(65535)
            except OSError:
                # Drained, or a queued ICMP error: either way the loop
                # calls again while replies remain (level-triggered).
                return
            self.replies += 1

    def close(self) -> None:
        asyncio.get_running_loop().remove_reader(self.sock)
        self.sock.close()


async def _tcp_drive(host: str, port: int, wires: List[bytes],
                     timeout: float = 2.0) -> int:
    """Pipeline ``wires`` over TCP, reopening when the server closes on
    us (malformed frame, injected fault, shed); returns replies read."""
    replies = 0
    idx = 0
    while idx < len(wires):
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            break
        try:
            while idx < len(wires):
                wire = wires[idx]
                idx += 1
                try:
                    writer.write(struct.pack("!H", len(wire)) + wire)
                    await writer.drain()
                    header = await asyncio.wait_for(
                        reader.readexactly(2), timeout
                    )
                    (length,) = struct.unpack("!H", header)
                    await asyncio.wait_for(
                        reader.readexactly(length), timeout
                    )
                    replies += 1
                except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                        ConnectionError, OSError):
                    break  # server broke the connection: reopen, carry on
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return replies


async def _read_status(host: str, port: int) -> Optional[Dict[str, object]]:
    try:
        reader, writer = await asyncio.open_connection(host, port)
        raw = await asyncio.wait_for(reader.readline(), 5.0)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        return json.loads(raw)
    except (OSError, ValueError, asyncio.TimeoutError):
        return None


def _probe_rewritten(server, address: str) -> bool:
    """Ask the live query path for the rewritten owner once; True when it
    answers with exactly ``address`` (a stale memoised answer would not).
    Asked as TCP so the datagram fault sites cannot drop it."""
    wire = build_query(0, Query(DnsName.from_text(REWRITTEN_OWNER), RRType.A))
    reply = server.handle_packet(wire, "chaos-drill-probe", transport="tcp")
    try:
        _, response = parse_response(reply)
    except WireError:
        return False
    return [r.rdata.to_text() for r in response.answer] == [address]


def _answers_rederive(snapshot) -> bool:
    """Every memoised answer equals what the snapshot's engine builds for
    the same packet now (transaction id zeroed on both sides)."""
    from repro.serve.snapshot import ResolveError

    for key, (rcode, tail) in list(snapshot.answers.items()):
        try:
            _, query = parse_query(b"\0\0" + key)
            response = snapshot.resolve(query)
            rebuilt = build_response(0, response)[2:]
        except (WireError, ResolveError):
            return False
        if rebuilt != tail or int(response.rcode) != rcode:
            return False
    return True


def _write_zone(path: str, text: str, bump: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    # Force a visible mtime change even inside one filesystem tick.
    stamp = time.time() + bump
    os.utime(path, (stamp, stamp))


async def _soak(config: ChaosDrillConfig, workdir: str) -> ChaosDrillReport:
    from repro.dns.zonefile import parse_zone_text, zone_to_text
    from repro.incremental.digest import zone_digest
    from repro.serve.reload import ZoneReloader
    from repro.serve.server import ZoneServer
    from repro.zonegen.corpus import MINIMAL_ZONE_TEXT

    started = time.perf_counter()
    zone = parse_zone_text(MINIMAL_ZONE_TEXT)
    zone_path = os.path.join(workdir, "zone.db")
    journal_path = os.path.join(workdir, "publish.journal")
    _write_zone(zone_path, MINIMAL_ZONE_TEXT, 0)

    server = ZoneServer(
        zone,
        config.version,
        port=0,
        status_port=0,
        selfcheck_every=config.selfcheck_every,
        journal=journal_path,
        max_qps=config.qps_capacity,
        tcp_idle_timeout=5.0,
    )
    uncaught: List[str] = []
    await server.start()
    loop = asyncio.get_running_loop()
    loop.set_exception_handler(
        lambda _loop, ctx: uncaught.append(
            repr(ctx.get("exception") or ctx.get("message"))
        )
    )
    boot = await server.verify_boot()

    reloader = ZoneReloader(
        zone_path, server.gate.reload_sink(zone_path),
        retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
        sleep=lambda _delay: None,
    )
    reloader.prime()

    rng = random.Random(config.seed)
    served_digests = {server.snapshot.digest}
    verified_digests = {server.snapshot.digest}
    held_digests = set()
    delta_log: List[Dict[str, object]] = []

    plan = faults.FaultPlan.seeded(
        config.seed, rate=config.fault_rate, sites=faults.SERVE_SITES
    )
    client = _DrillClient(server.host, server.port)

    tcp_wires: List[bytes] = []
    tcp_replies = 0
    sent = 0
    deltas_done = 0
    delta_every = max(1, config.queries // (config.deltas + 1))

    # The cap bounds the *drive* phase: boot + verification time (which
    # can exceed a short cap on its own) is not charged against it.
    deadline = (None if config.duration is None
                else time.perf_counter() + config.duration)
    with faults.active(plan):
        for i in range(config.queries):
            if deadline is not None and time.perf_counter() > deadline:
                break  # invariants hold for any prefix of the soak
            wire = next_packet(rng, 0x4000 + i, config.malformed_fraction)
            if rng.random() < config.tcp_fraction:
                tcp_wires.append(wire)
                if len(tcp_wires) >= 10:
                    tcp_replies += await _tcp_drive(
                        server.host, server.port, tcp_wires
                    )
                    tcp_wires = []
            else:
                client.send(wire)
            sent += 1
            if i % 13 == 0:
                await asyncio.sleep(0)  # let the loop deliver datagrams
            served_digests.add(server.snapshot.digest)
            if (i + 1) % delta_every == 0 and deltas_done < config.deltas:
                buggy = deltas_done == 1  # one mid-soak poisoned delta
                text = (buggy_delta_text() if buggy
                        else benign_delta_text(deltas_done))
                address = None if buggy else benign_address(deltas_done)
                digest = zone_digest(parse_zone_text(text))
                _write_zone(zone_path, text, deltas_done + 1)
                result = await asyncio.to_thread(reloader.poll_once)
                deltas_done += 1
                entry: Dict[str, object] = {
                    "kind": "buggy" if buggy else "benign",
                    "digest": digest,
                }
                if result is None:
                    entry["verdict"] = None  # IO failure: retried next poll
                else:
                    entry["verdict"] = result.verdict
                    entry["accepted"] = result.accepted
                    if result.accepted:
                        verified_digests.add(result.snapshot_digest)
                        if address is not None:
                            entry["served_new_rdata"] = _probe_rewritten(
                                server, address)
                    else:
                        held_digests.add(digest)
                if buggy:
                    held_digests.add(digest)
                delta_log.append(entry)
        if tcp_wires:
            tcp_replies += await _tcp_drive(server.host, server.port,
                                            tcp_wires)
        await asyncio.sleep(0.05)  # drain in-flight datagrams
        served_digests.add(server.snapshot.digest)

    # -- post-soak checks, fault plan gone -----------------------------------
    selfcheck_report = await server.run_selfcheck() or {}
    status_doc = await _read_status(server.host, server.status_port)
    conservation = server.metrics.conservation()
    journal_records = server.journal.replay()
    answers_rederive = _answers_rederive(server.snapshot)
    final_digest = server.snapshot.digest
    final_sequence = server.snapshot.sequence
    metrics = server.metrics.as_dict()
    gate_health = server.gate.health()
    degrade_state = (server.degrade.as_dict()
                     if server.degrade is not None else None)
    client.close()
    await server.drain(config.grace)

    # -- restart over the same journal ---------------------------------------
    restart: Dict[str, object] = {}
    restart_ok = False
    try:
        reborn = ZoneServer(
            parse_zone_text(zone_to_text(server.snapshot.zone)),
            config.version,
            status_port=None,
            journal=journal_path,
        )
        bit_identical = (
            reborn.snapshot.digest == final_digest
            and reborn.recovered_sequence == final_sequence
        )
        if not bit_identical:
            # Journal ran ahead (a swap-site fault after an append):
            # start() must re-verify and come up rather than wedge.
            await reborn.start()
            await reborn.stop()
        restart_ok = bit_identical or reborn.snapshot.digest in (
            verified_digests | {final_digest}
        )
        restart = {
            "bit_identical": bit_identical,
            "digest": reborn.snapshot.digest,
            "sequence": reborn.snapshot.sequence,
            "recovered_sequence": reborn.recovered_sequence,
        }
    except Exception as exc:  # RecoveryError, bind failures
        restart = {"error": f"{type(exc).__name__}: {exc}"}

    invariants = {
        "boot_verified": boot.verdict == verdicts_mod.VERIFIED,
        "no_unverified_served": served_digests <= verified_digests,
        "held_never_served": not (held_digests & served_digests),
        "journal_all_verified": all(
            r.verdict == verdicts_mod.VERIFIED for r in journal_records
        ),
        "journal_covers_serving": bool(journal_records)
        and journal_records[-1].sequence >= final_sequence,
        "metrics_conserved": bool(conservation["conserved"]),
        "no_uncaught_exceptions": not uncaught,
        "selfcheck_clean": (
            selfcheck_report.get("divergences", 0) == 0
            and selfcheck_report.get("spec_divergences", 0) == 0
        ),
        "status_readable": status_doc is not None,
        "restart_recovers": restart_ok,
        "answer_cache_consistent": answers_rederive and all(
            d.get("served_new_rdata", True) for d in delta_log
        ),
    }
    failures = [name for name, held in invariants.items() if not held]
    if uncaught:
        failures.extend(f"uncaught: {u}" for u in uncaught[:5])

    return ChaosDrillReport(
        seed=config.seed,
        version=config.version,
        queries_sent=sent,
        replies_received=client.replies + tcp_replies,
        invariants=invariants,
        faults_fired=dict(plan.fired),
        faults_consulted=dict(plan.consults),
        deltas=delta_log,
        metrics=metrics,
        gate=gate_health,
        degrade=degrade_state,
        selfcheck=selfcheck_report,
        restart=restart,
        elapsed_seconds=time.perf_counter() - started,
        failures=failures,
    )


def chaos_drill(config: Optional[ChaosDrillConfig] = None,
                workdir: Optional[str] = None) -> ChaosDrillReport:
    """Run one serve-plane chaos soak; see the module docstring."""
    config = config if config is not None else ChaosDrillConfig()
    if workdir is not None:
        return asyncio.run(_soak(config, workdir))
    with tempfile.TemporaryDirectory() as tmp:
        return asyncio.run(_soak(config, tmp))
