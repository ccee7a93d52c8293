"""The asyncio authoritative server: UDP + TCP + a status channel.

:class:`ZoneServer` serves one zone with one engine version from an
immutable :class:`~repro.serve.snapshot.ServingSnapshot`, fronted by the
:class:`~repro.serve.gate.PublishGate` — zone updates only reach the
serving path after they re-verify (see :mod:`repro.serve.gate`).

Transports
----------

- **UDP** (RFC 1035 4.2.1): one datagram in, one datagram out, served by
  a single event-loop reader callback (:meth:`ZoneServer.read_datagrams`)
  on the non-blocking socket — no asyncio datagram transport in between.
  Each wakeup answers at most :data:`UDP_BATCH` datagrams, then returns
  to the loop, so a flood cannot starve TCP, the status channel, the
  reloader or the self-check task. Malformed packets shorter than a
  header are dropped (there is nothing safe to echo back), as are
  messages with QR=1 (answering a response would start a reflection
  loop, RFC 1035 7.1); other parse failures past the header return
  FORMERR; engine failures return SERVFAIL. A reply ``sendto`` cannot
  deliver — a full kernel send buffer (``EAGAIN``) included — is
  dropped and counted in ``send_failures``; the client retries. Every
  branch increments a metric.
- **TCP** (RFC 1035 4.2.2): two-byte length framing, many pipelined
  queries per connection, mid-message disconnects tolerated. A rate-limit
  drop closes the connection (the TCP analogue of dropping a datagram).
- **Status**: connect to the status port and the server writes one JSON
  document — snapshot digest/sequence, last publish verdict, health alarm,
  qps and drop counters, self-check state — then closes. ``nc host port``
  is the whole monitoring client.

The query path is synchronous and runs directly on the event loop, called
by the UDP reader per datagram and by the TCP handler per frame. A
question the current snapshot has answered before is a dictionary hit on
its answer memo (:attr:`ServingSnapshot.answers`, keyed by the query bytes
after the transaction id): the cached reply tail goes out behind the new
transaction id, a few µs. A hit is served right after the rate limiter
and the length check, ahead of the TRUNCATE and SERVFAIL_SHED rungs:
those rungs shed engine work, and a hit does none. A miss parses the
packet, encodes the query name, walks the engine's tree once and renders
the answer straight to wire bytes from the snapshot's fragment tables
(:meth:`ServingSnapshot.render`); an answer the tables cannot render is
decoded and serialized the old way from the same engine output. A reply
that built cleanly is memoised. Verification runs in a worker thread via
:meth:`ZoneServer.publish` so the server keeps answering during a gate
check. Self-checking replays a sample of live queries against a
``verified``-engine snapshot (:mod:`repro.serve.selfcheck`).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import time
from typing import Dict, Optional, Tuple

from repro.dns.message import Query, Response
from repro.dns.rtypes import RCode
from repro.dns.wire import (
    NotAQueryError,
    WireError,
    build_error_response,
    build_response,
    build_truncated_response,
    parse_query,
)
from repro.dns.zone import Zone
from repro.resilience import faults
from repro.serve import degrade as degrade_mod
from repro.serve.gate import PublishGate, PublishResult
from repro.serve.journal import PublishJournal
from repro.serve.metrics import ServerMetrics
from repro.serve.ratelimit import ClientRateLimiter
from repro.serve.selfcheck import SelfChecker
from repro.serve.snapshot import ResolveError, ServingSnapshot, build_snapshot

#: Shortest parseable message: the 12-byte header. Anything shorter is
#: dropped — there is no transaction id worth echoing an error to.
MIN_QUERY_LENGTH = 12

#: Bound on one snapshot's answer memo. A full memo is cleared, not
#: evicted entry by entry, so a hit does no bookkeeping; a working set
#: that fits (the common case: a zone's hot names) stays resident, and a
#: stream of distinct questions costs one clear per this many misses.
ANSWER_CACHE_CAP = 2048

#: Datagrams read per wakeup of the UDP reader. A flood keeps the UDP
#: socket readable forever; returning to the loop after this many lets
#: TCP, the status channel, the reloader and the self-check task run
#: between batches, while one wakeup still amortises the loop's
#: selector round over many queries.
UDP_BATCH = 64

#: ``recvfrom`` buffer size: the UDP payload ceiling, so no datagram is
#: silently cut short on read.
MAX_DATAGRAM = 65535

#: Default slowloris guard: a TCP connection that completes no frame for
#: this long is closed and counted (``None`` disables).
DEFAULT_TCP_IDLE_TIMEOUT = 30.0


class RecoveryError(RuntimeError):
    """Boot-time journal recovery failed: the zone on disk disagrees with
    the journal head AND its re-verification did not come back VERIFIED.
    The server refuses to start — serving an unverified zone would void
    the invariant the journal exists to keep."""


def _bind_socket_pair(host: str, port: int,
                      attempts: int = 32) -> Tuple[socket.socket,
                                                   socket.socket]:
    """Bind a UDP and a TCP socket on the *same* port number.

    With ``port=0`` the OS picks the UDP port first, and the matching TCP
    port may already belong to another process — so retry with a fresh
    UDP port until a pair binds, instead of failing start() on whatever
    number the first UDP bind happened to draw. An explicit port gets no
    retries: a collision there is the operator's to resolve.
    """
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    last_error: Optional[OSError] = None
    for _ in range(attempts):
        udp = socket.socket(family, socket.SOCK_DGRAM)
        try:
            udp.bind((host, port))
        except OSError:
            udp.close()
            raise
        chosen = udp.getsockname()[1]
        tcp = socket.socket(family, socket.SOCK_STREAM)
        tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            tcp.bind((host, chosen))
        except OSError as exc:
            udp.close()
            tcp.close()
            if port != 0:
                raise
            last_error = exc
            continue
        return udp, tcp
    raise OSError(
        f"no free matching UDP+TCP port pair on {host} "
        f"after {attempts} attempts"
    ) from last_error


class ZoneServer:
    """One zone, one engine version, served until told otherwise.

    ``cache`` and ``options`` (a :class:`~repro.core.options.VerifyOptions`,
    ``workers`` included) configure the :class:`PublishGate`'s verifier.
    """

    def __init__(
        self,
        zone: Zone,
        version: str = "verified",
        host: str = "127.0.0.1",
        port: int = 0,
        status_port: Optional[int] = 0,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        selfcheck_every: int = 0,
        selfcheck_interval: float = 30.0,
        cache=None,
        options=None,
        journal=None,
        max_qps: Optional[float] = None,
        degrade: Optional[degrade_mod.OverloadController] = None,
        tcp_idle_timeout: Optional[float] = DEFAULT_TCP_IDLE_TIMEOUT,
        clock=time.monotonic,
    ):
        if journal is not None and not isinstance(journal, PublishJournal):
            journal = PublishJournal(journal)
        self._clock = clock
        snapshot = build_snapshot(zone, version, clock=clock)
        #: Set when the journal head names a different zone than the one
        #: booted from disk: start() must re-verify before serving.
        self._recovery_head = None
        self.recovered_sequence: Optional[int] = None
        if journal is not None:
            head = journal.head()
            if head is not None and head.digest == snapshot.digest:
                # Clean recovery: the boot zone IS the last journaled
                # VERIFIED publish. Adopt its sequence number so a
                # SIGKILL/restart is indistinguishable from no crash.
                snapshot = build_snapshot(
                    zone, version, sequence=head.sequence, clock=clock
                )
                self.recovered_sequence = head.sequence
            elif head is not None:
                self._recovery_head = head
        self.version = version
        self.host = host
        self.port = port
        self.status_port = status_port
        self.gate = PublishGate(
            snapshot, cache=cache, options=options, journal=journal,
            clock=clock,
        )
        self.metrics = ServerMetrics(clock=clock)
        self.limiter = (
            ClientRateLimiter(rate_limit, rate_burst, clock=clock)
            if rate_limit
            else None
        )
        self.selfcheck = (
            SelfChecker(every=selfcheck_every, clock=clock)
            if selfcheck_every
            else None
        )
        self.selfcheck_interval = selfcheck_interval
        if degrade is None and max_qps is not None:
            degrade = degrade_mod.OverloadController(max_qps, clock=clock)
        self.degrade = degrade
        self.tcp_idle_timeout = tcp_idle_timeout
        self._inflight_tcp = 0
        self._udp_sock: Optional[socket.socket] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._status_server: Optional[asyncio.AbstractServer] = None
        self._selfcheck_task: Optional[asyncio.Task] = None
        self._stopping: Optional[asyncio.Event] = None  # created on start

    # -- the query path (synchronous, runs on the event loop) ---------------

    @property
    def snapshot(self) -> ServingSnapshot:
        return self.gate.snapshot

    @property
    def journal(self) -> Optional[PublishJournal]:
        return self.gate.journal

    def handle_packet(self, data: bytes, client: str,
                      transport: str = "udp") -> bytes:
        """One query in, one (possibly empty) reply out. Pure function of
        the current snapshot — no awaits, no shared mutable state beyond
        counters and the pinned snapshot's own answer memo — so a
        snapshot swap mid-burst is invisible to it."""
        self.metrics.count_query(transport)
        if transport == "udp" and faults.should_fire(faults.SITE_SERVE_UDP_RECV):
            # Simulates the datagram dying in the socket layer (recv
            # error, kernel buffer overrun): counted, never answered.
            self.metrics.dropped_fault += 1
            return b""
        level = degrade_mod.NORMAL
        if self.degrade is not None:
            level = self.degrade.tick(self.metrics, self._inflight_tcp)
            if level >= degrade_mod.DROP:
                self.metrics.dropped_overload += 1
                return b""
        if self.limiter is not None and not self.limiter.allow(client):
            self.metrics.dropped_ratelimit += 1
            return b""
        if len(data) < MIN_QUERY_LENGTH:
            self.metrics.dropped_malformed += 1
            return b""
        snapshot = self.gate.snapshot  # pin: publishes swap this reference
        key = data[2:]
        hit = snapshot.answers.get(key)
        if hit is not None:
            # Served ahead of the TRUNCATE and SERVFAIL_SHED rungs: those
            # shed engine work, and a hit does none. The entry holds no
            # Query (one per entry costs the miss path measurably in
            # collector work); the self-checker re-parses a sampled key.
            if self.selfcheck is not None:
                self._observe(level, None, key)
            self.metrics.answer_cache_hits += 1
            self.metrics.count_rcode(hit[0])
            return data[:2] + hit[1]
        try:
            txid, query = parse_query(data)
        except NotAQueryError:
            # RFC 1035 7.1: never answer a message with QR set — a reply
            # would itself be a response, and a spoofed source address
            # (another server's, or our own) turns that into an infinite
            # reflection loop between authoritatives.
            self.metrics.dropped_malformed += 1
            return b""
        except WireError:
            txid = int.from_bytes(data[:2], "big")
            self.metrics.count_rcode(int(RCode.FORMERR))
            return build_error_response(txid, RCode.FORMERR)

        if level >= degrade_mod.SERVFAIL_SHED and self.degrade.should_shed(client):
            # Header-only SERVFAIL for the (deterministically chosen)
            # lowest-priority clients: one cheap packet, no resolve.
            self.metrics.shed_servfail += 1
            self.metrics.count_rcode(int(RCode.SERVFAIL))
            return build_error_response(txid, RCode.SERVFAIL)
        if level >= degrade_mod.TRUNCATE and transport == "udp":
            # RFC 1035 4.2.1: answer TC=1 so the client retries over TCP,
            # where the accept queue back-pressures. Skips the resolve.
            self.metrics.truncated += 1
            self.metrics.count_rcode(int(RCode.NOERROR))
            return build_truncated_response(txid, query)

        if self.selfcheck is not None:
            self._observe(level, query, key)
        try:
            go_resp, overlay = snapshot.run_engine(query)
        except ResolveError:
            self.metrics.engine_crashes += 1
            return self._servfail(txid, query)
        rendered = snapshot.render(query, go_resp, overlay)
        if rendered is None:
            # No fragment for some part of this answer: build it through
            # decode and build_response from the same engine output, so
            # every failure is classified as it always was.
            try:
                response = snapshot.decode(query, go_resp, overlay)
            except ResolveError:
                self.metrics.decode_failures += 1
                return self._servfail(txid, query)
            try:
                wire = build_response(txid, response)
            except WireError:
                self.metrics.encode_failures += 1
                return self._servfail(txid, query)
            rendered = (int(response.rcode), wire[2:])
        rcode, tail = rendered
        answers = snapshot.answers
        if len(answers) >= ANSWER_CACHE_CAP:
            answers.clear()
        answers[key] = rendered
        self.metrics.count_rcode(rcode)
        return data[:2] + tail

    def _observe(self, level: int, query: Optional[Query], key: bytes) -> None:
        """Offer one answered question to the self-checker, or count it
        as unsampled while the ladder sheds self-checking."""
        if level >= degrade_mod.SHED_SELFCHECK:
            self.metrics.selfcheck_suspended += 1
        else:
            self.selfcheck.observe(query, key)

    def _servfail(self, txid: int, query: Query) -> bytes:
        self.metrics.count_rcode(int(RCode.SERVFAIL))
        return build_error_response(txid, RCode.SERVFAIL, query)

    def read_datagrams(self, sock) -> None:
        """The UDP reader callback: answer up to :data:`UDP_BATCH`
        datagrams waiting on the non-blocking ``sock``, then yield to the
        loop. Each goes through :meth:`handle_packet`, looked up once per
        wakeup rather than bound at start() so a wrapper installed on the
        class (tracing) sees every query."""
        handle = self.handle_packet
        for _ in range(UDP_BATCH):
            try:
                data, addr = sock.recvfrom(MAX_DATAGRAM)
            except (BlockingIOError, InterruptedError):
                return  # drained: wait for the next wakeup
            except OSError:
                # A queued ICMP error (say, port unreachable for an
                # earlier reply) surfaces here; it costs that one read,
                # never the reader.
                continue
            reply = handle(data, addr[0], "udp")
            if reply:
                try:
                    # `serve.udp.send` simulates sendto failing under
                    # memory or buffer pressure. A full send buffer
                    # (EAGAIN) is the same case for real: the reply is
                    # lost, the client retries, the loop lives.
                    faults.maybe_raise(faults.SITE_SERVE_UDP_SEND)
                    sock.sendto(reply, addr)
                except OSError:
                    self.metrics.send_failures += 1

    def resolve(self, query: Query) -> Response:
        """Resolve without the wire layer (tests, benchmarks)."""
        return self.gate.snapshot.resolve(query)

    # -- publishing ---------------------------------------------------------

    def publish_sync(self, new_zone: Zone) -> PublishResult:
        """Gate a new zone synchronously (CPU-bound: runs the prover)."""
        return self.gate.submit(new_zone)

    async def publish(self, new_zone: Zone) -> PublishResult:
        """Gate a new zone off-loop; queries keep flowing meanwhile."""
        return await asyncio.to_thread(self.gate.submit, new_zone)

    async def verify_boot(self) -> PublishResult:
        """Verify the zone the server booted with (no swap; a failure
        latches the gate alarm so the status channel shows it). On a
        fresh journal, a passing boot verification is journaled as the
        sequence-zero record — only *verified* zones ever enter the
        journal, including the first one."""
        result = await asyncio.to_thread(self.gate.bootstrap)
        if (result.verdict == "VERIFIED" and self.journal is not None
                and self.journal.head() is None):
            await asyncio.to_thread(self.gate.journal_bootstrap, "bootstrap")
        return result

    # -- self-check ---------------------------------------------------------

    async def run_selfcheck(self) -> Optional[Dict[str, object]]:
        if self.selfcheck is None:
            return None
        return await asyncio.to_thread(self.selfcheck.run, self.gate.snapshot)

    async def _selfcheck_loop(self) -> None:
        while True:
            await asyncio.sleep(self.selfcheck_interval)
            if self.selfcheck.pending:
                await self.run_selfcheck()

    # -- lifecycle ----------------------------------------------------------

    async def _recover_if_needed(self) -> None:
        """Journal recovery, step two: the boot zone's digest did not
        match the journal head, so its verification status is unknown.
        Re-verify before a single query is answered; a non-VERIFIED
        verdict aborts startup (:class:`RecoveryError`), a VERIFIED one
        advances past the stale head and journals the adoption."""
        if self._recovery_head is None:
            return
        head = self._recovery_head
        result = await asyncio.to_thread(self.gate.bootstrap)
        if result.verdict != "VERIFIED":
            raise RecoveryError(
                f"journal head #{head.sequence} digest {head.digest[:12]} "
                f"does not match the boot zone "
                f"{self.gate.snapshot.digest[:12]}, and re-verification "
                f"came back {result.verdict}"
                f"{f' ({result.reason})' if result.reason else ''} — "
                f"refusing to serve an unverified zone"
            )
        # Adopt a sequence past the journal head so the lineage stays
        # monotonic, then journal this zone as the new durable state.
        self.gate.snapshot = build_snapshot(
            self.gate.snapshot.zone,
            self.version,
            sequence=head.sequence + 1,
            clock=self._clock,
        )
        self.recovered_sequence = head.sequence + 1
        await asyncio.to_thread(self.gate.journal_bootstrap, "recovery")
        self._recovery_head = None

    async def start(self) -> None:
        """Bind UDP, TCP and the status channel. ``port=0`` picks a free
        port (the same number is then used for both UDP and TCP);
        ``status_port=None`` disables the status channel, ``0`` picks a
        free one."""
        loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        await self._recover_if_needed()
        udp_sock, tcp_sock = _bind_socket_pair(self.host, self.port)
        self.port = udp_sock.getsockname()[1]
        udp_sock.setblocking(False)
        self._udp_sock = udp_sock
        loop.add_reader(udp_sock, self.read_datagrams, udp_sock)
        self._tcp_server = await asyncio.start_server(
            self._serve_tcp, sock=tcp_sock
        )
        if self.status_port is not None:
            self._status_server = await asyncio.start_server(
                self._serve_status, self.host, self.status_port
            )
            self.status_port = self._status_server.sockets[0].getsockname()[1]
        if self.selfcheck is not None and self.selfcheck_interval:
            self._selfcheck_task = asyncio.ensure_future(self._selfcheck_loop())

    def _close_udp(self) -> None:
        """Unregister the UDP reader, then close its socket (the reader
        must go first: a closed socket no longer has a descriptor to
        unregister). A second call is a no-op."""
        sock, self._udp_sock = self._udp_sock, None
        if sock is not None:
            asyncio.get_running_loop().remove_reader(sock)
            sock.close()

    async def stop(self) -> None:
        if self._selfcheck_task is not None:
            self._selfcheck_task.cancel()
            try:
                await self._selfcheck_task
            except asyncio.CancelledError:
                pass
            self._selfcheck_task = None
        self._close_udp()
        for server in (self._tcp_server, self._status_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._tcp_server = None
        self._status_server = None
        if self._stopping is not None:
            self._stopping.set()

    def request_stop(self) -> None:
        """Ask the server to drain and exit (the SIGTERM/SIGINT hook).
        Safe to call multiple times; a no-op before start()."""
        if self._stopping is not None:
            self._stopping.set()

    async def drain(self, grace: float = 5.0) -> None:
        """Graceful shutdown: stop accepting (close the UDP socket and
        the TCP listener), let in-flight TCP connections finish for up to
        ``grace`` seconds, then tear everything down. The journal needs
        no explicit flush — every append fsyncs before returning."""
        self._close_udp()
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        deadline = self._clock() + grace
        while self._inflight_tcp > 0 and self._clock() < deadline:
            await asyncio.sleep(0.05)
        await self.stop()

    async def run_forever(self, duration: Optional[float] = None,
                          grace: float = 5.0) -> None:
        """Serve until :meth:`request_stop` (or for ``duration`` seconds),
        then drain gracefully."""
        if self._stopping is None:
            await self.start()
        try:
            if duration is None:
                await self._stopping.wait()
            else:
                try:
                    await asyncio.wait_for(self._stopping.wait(), duration)
                except asyncio.TimeoutError:
                    pass
        finally:
            await self.drain(grace)

    # -- TCP ----------------------------------------------------------------

    async def _read_framed(self, reader: asyncio.StreamReader,
                           length: int) -> bytes:
        """readexactly under the idle deadline; the slowloris guard. A
        peer that opens a connection and trickles (or never sends) bytes
        would otherwise hold a reader task forever."""
        if self.tcp_idle_timeout is None:
            return await reader.readexactly(length)
        return await asyncio.wait_for(reader.readexactly(length),
                                      self.tcp_idle_timeout)

    async def _serve_tcp(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        self.metrics.tcp_connections += 1
        self._inflight_tcp += 1
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else "tcp"
        try:
            while True:
                try:
                    # `serve.tcp.read` simulates the socket read dying
                    # under the peer (RST, interface bounce) before the
                    # frame header completes.
                    faults.maybe_raise(faults.SITE_SERVE_TCP_READ)
                    header = await self._read_framed(reader, 2)
                except asyncio.TimeoutError:
                    self.metrics.tcp_idle_timeouts += 1
                    break
                except OSError:
                    self.metrics.tcp_read_faults += 1
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # clean EOF or mid-header disconnect
                (length,) = struct.unpack("!H", header)
                try:
                    data = await self._read_framed(reader, length)
                except asyncio.TimeoutError:
                    self.metrics.tcp_idle_timeouts += 1
                    break
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    self.metrics.tcp_disconnects += 1
                    break
                reply = self.handle_packet(data, client, transport="tcp")
                if not reply:
                    break  # dropped (rate limit/malformed/shed): close
                try:
                    # `serve.tcp.write` simulates the reply write failing
                    # (peer closed its window and vanished): the reply is
                    # lost, the connection closes, the loop lives.
                    faults.maybe_raise(faults.SITE_SERVE_TCP_WRITE)
                    writer.write(struct.pack("!H", len(reply)) + reply)
                    await writer.drain()
                except (ConnectionError, OSError):
                    self.metrics.tcp_disconnects += 1
                    break
        finally:
            self._inflight_tcp -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- status channel ------------------------------------------------------

    def status(self) -> Dict[str, object]:
        snapshot = self.gate.snapshot
        payload: Dict[str, object] = {
            "version": snapshot.version,
            "origin": snapshot.zone.origin.to_text(),
            "snapshot": {
                "digest": snapshot.digest,
                "sequence": snapshot.sequence,
                "records": len(snapshot.zone),
                "published_at": snapshot.published_at,
            },
            "gate": self.gate.health(),
            "metrics": self.metrics.as_dict(),
            "endpoints": {
                "host": self.host,
                "port": self.port,
                "status_port": self.status_port,
            },
        }
        if self.limiter is not None:
            payload["ratelimit"] = self.limiter.as_dict()
        if self.selfcheck is not None:
            payload["selfcheck"] = self.selfcheck.as_dict()
        if self.degrade is not None:
            payload["degrade"] = self.degrade.as_dict()
        if self.recovered_sequence is not None:
            payload["recovered_sequence"] = self.recovered_sequence
        return payload

    async def _serve_status(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        try:
            writer.write(json.dumps(self.status(), sort_keys=True).encode()
                         + b"\n")
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
