"""ZoneServer over real asyncio loopback UDP, plus the status channel."""

import asyncio
import gc
import json
import socket
import struct
import warnings

from repro.dns.message import Query
from repro.dns.name import DnsName
from repro.dns.rtypes import RCode, RRType
from repro.dns.wire import build_query, parse_response
from repro.dns.zonefile import parse_zone_text
from repro.serve import ZoneServer
from repro.serve.server import UDP_BATCH
from repro.testing.faultdrill import ScriptedUdpSocket
from repro.zonegen import evaluation_zone
from repro.zonegen.corpus import MINIMAL_ZONE_TEXT


def query_wire(text, qtype=RRType.A, txid=0x1234):
    return build_query(txid, Query(DnsName.from_text(text), qtype))


class _Client(asyncio.DatagramProtocol):
    def __init__(self):
        self.transport = None
        self.replies = asyncio.Queue()

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        self.replies.put_nowait(data)


async def udp_query(server, wire, timeout=5.0):
    loop = asyncio.get_running_loop()
    transport, proto = await loop.create_datagram_endpoint(
        _Client, remote_addr=(server.host, server.port)
    )
    try:
        transport.sendto(wire)
        return await asyncio.wait_for(proto.replies.get(), timeout)
    finally:
        transport.close()


def with_server(run, **kwargs):
    """Start a ZoneServer on loopback, run the async callback, stop."""
    kwargs.setdefault("status_port", None)

    async def main():
        server = ZoneServer(evaluation_zone(), **kwargs)
        await server.start()
        try:
            return await run(server)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestUdpQueries:
    def test_positive_answer(self):
        async def run(server):
            reply = await udp_query(server, query_wire("www.example.com."))
            txid, response = parse_response(reply)
            assert txid == 0x1234
            assert response.rcode is RCode.NOERROR
            assert response.answer
            assert server.metrics.queries_udp == 1
            assert server.metrics.noerror == 1

        with_server(run)

    def test_nxdomain(self):
        async def run(server):
            reply = await udp_query(server, query_wire("missing.example.com."))
            _, response = parse_response(reply)
            assert response.rcode is RCode.NXDOMAIN
            assert server.metrics.nxdomain == 1

        with_server(run)

    def test_wildcard_with_unknown_labels(self):
        async def run(server):
            reply = await udp_query(
                server, query_wire("a.b.wild.example.com.")
            )
            _, response = parse_response(reply)
            assert response.rcode is RCode.NOERROR
            assert response.answer[0].rname == DnsName.from_text(
                "a.b.wild.example.com."
            )

        with_server(run)

    def test_formerr_on_truncated_qname(self):
        # 12 header bytes + a label-length byte promising more than is
        # there: parseable header, unparseable question -> FORMERR.
        async def run(server):
            wire = query_wire("www.example.com.", txid=0xABCD)[:14]
            reply = await udp_query(server, wire)
            txid, flags = struct.unpack("!HH", reply[:4])
            assert txid == 0xABCD
            assert flags & 0x8000  # QR: it is a response
            assert flags & 0xF == int(RCode.FORMERR)
            assert server.metrics.formerr == 1

        with_server(run)

    def test_response_packet_dropped_not_reflected(self):
        # A datagram with QR=1 (e.g. another server's reply, spoofed to
        # come from us) must be dropped, not answered with FORMERR — an
        # error reply also has QR set, so answering would let a single
        # spoofed packet start an infinite reflection loop (RFC 1035 7.1).
        async def run(server):
            transport, proto = await asyncio.get_running_loop(
            ).create_datagram_endpoint(
                _Client, remote_addr=(server.host, server.port)
            )
            try:
                spoofed = bytearray(query_wire("www.example.com."))
                spoofed[2] |= 0x80  # QR: this is a response
                transport.sendto(bytes(spoofed))
                # No reply should come; a follow-up valid query still works.
                transport.sendto(query_wire("www.example.com."))
                reply = await asyncio.wait_for(proto.replies.get(), 5.0)
                _, response = parse_response(reply)
                assert response.rcode is RCode.NOERROR
                assert proto.replies.empty()
            finally:
                transport.close()
            assert server.metrics.dropped_malformed == 1
            assert server.metrics.formerr == 0

        with_server(run)

    def test_own_reply_not_reanswered(self):
        # The degenerate loop case: feed the server one of its own
        # replies. handle_packet must return nothing.
        server = ZoneServer(evaluation_zone())
        reply = server.handle_packet(query_wire("www.example.com."),
                                     "192.0.2.1")
        assert reply
        assert server.handle_packet(reply, "192.0.2.1") == b""
        assert server.metrics.dropped_malformed == 1
        assert server.metrics.formerr == 0

    def test_sub_header_datagram_dropped_silently(self):
        async def run(server):
            transport, proto = await asyncio.get_running_loop(
            ).create_datagram_endpoint(
                _Client, remote_addr=(server.host, server.port)
            )
            try:
                transport.sendto(b"\x00\x01\x02")
                # No reply should come; a follow-up valid query still works.
                transport.sendto(query_wire("www.example.com."))
                reply = await asyncio.wait_for(proto.replies.get(), 5.0)
                _, response = parse_response(reply)
                assert response.rcode is RCode.NOERROR
            finally:
                transport.close()
            assert server.metrics.dropped_malformed == 1

        with_server(run)


def flood_socket(server, rcvbuf=1 << 20):
    """A non-blocking client socket aimed at the server's UDP port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.connect((server.host, server.port))
    sock.setblocking(False)
    return sock


async def tcp_query(server, wire, timeout=5.0):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(struct.pack("!H", len(wire)) + wire)
        await writer.drain()
        (length,) = struct.unpack(
            "!H", await asyncio.wait_for(reader.readexactly(2), timeout))
        return await asyncio.wait_for(reader.readexactly(length), timeout)
    finally:
        writer.close()
        await writer.wait_closed()


CLIENT = ("198.51.100.7", 5300)


class TestUdpReader:
    def test_back_to_back_burst_larger_than_a_batch(self):
        count = 200
        assert count > UDP_BATCH  # the burst spans several wakeups

        async def run(server):
            loop = asyncio.get_running_loop()
            sock = flood_socket(server)
            try:
                for i in range(count):
                    sock.send(query_wire("www.example.com.", txid=i))
                txids = set()
                for _ in range(count):
                    reply = await asyncio.wait_for(
                        loop.sock_recv(sock, 65535), 5.0)
                    txid, response = parse_response(reply)
                    assert response.rcode is RCode.NOERROR
                    txids.add(txid)
            finally:
                sock.close()
            assert txids == set(range(count))
            assert server.metrics.queries_udp == count
            assert server.metrics.conservation()["conserved"]

        with_server(run)

    def test_tcp_and_status_complete_during_a_udp_flood(self):
        async def run(server):
            sock = flood_socket(server)
            wire = query_wire("www.example.com.")
            sent = 0
            flooding = True

            async def flood():
                nonlocal sent
                while flooding:
                    for _ in range(UDP_BATCH):
                        try:
                            sock.send(wire)
                            sent += 1
                        except BlockingIOError:
                            break
                    while True:  # discard replies; only the flood matters
                        try:
                            sock.recv(65535)
                        except BlockingIOError:
                            break
                    await asyncio.sleep(0)

            task = asyncio.ensure_future(flood())
            try:
                await asyncio.sleep(0.05)
                before = server.metrics.queries_udp
                assert before > 0
                _, response = parse_response(await tcp_query(server, wire))
                assert response.rcode is RCode.NOERROR
                reader, writer = await asyncio.open_connection(
                    server.host, server.status_port)
                line = await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
                await writer.wait_closed()
                assert json.loads(line)["metrics"]["queries_tcp"] == 1
                # The flood kept being answered throughout.
                assert server.metrics.queries_udp > before
            finally:
                flooding = False
                await task
                sock.close()
            assert sent > UDP_BATCH

        with_server(run, status_port=0)

    def test_stop_closes_the_socket_and_frees_the_port(self):
        async def main():
            loop = asyncio.get_running_loop()
            first = ZoneServer(evaluation_zone(), status_port=None)
            await first.start()
            port = first.port
            sock = first._udp_sock
            fd = sock.fileno()
            await first.stop()
            await first.stop()  # a second stop is a no-op
            assert sock.fileno() == -1  # closed
            assert not loop.remove_reader(fd)  # no reader left behind
            second = ZoneServer(evaluation_zone(), port=port,
                                status_port=None)
            await second.start()
            try:
                assert second.port == port
                reply = await udp_query(second, query_wire("www.example.com."))
                assert parse_response(reply)[1].rcode is RCode.NOERROR
            finally:
                await second.stop()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            asyncio.run(main())
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_one_batch_per_wakeup(self):
        server = ZoneServer(evaluation_zone(), status_port=None)
        wire = query_wire("www.example.com.")
        sock = ScriptedUdpSocket([(wire, CLIENT)] * (UDP_BATCH + 10))
        server.read_datagrams(sock)
        assert len(sock.sent) == UDP_BATCH  # the rest wait for the loop
        server.read_datagrams(sock)
        assert len(sock.sent) == UDP_BATCH + 10

    def test_recv_error_does_not_stop_the_reader(self):
        # A queued ICMP port-unreachable surfaces as ECONNREFUSED on the
        # next recvfrom: that read is lost, the datagram behind it is not.
        server = ZoneServer(evaluation_zone(), status_port=None)
        wire = query_wire("www.example.com.", txid=0x4242)
        sock = ScriptedUdpSocket([ConnectionRefusedError(), (wire, CLIENT)])
        server.read_datagrams(sock)
        assert len(sock.sent) == 1
        reply, addr = sock.sent[0]
        assert addr == CLIENT
        assert parse_response(reply)[0] == 0x4242
        assert server.metrics.queries_udp == 1
        assert server.metrics.conservation()["conserved"]

    def test_full_send_buffer_counts_a_send_failure(self):
        # EAGAIN on sendto drops the reply (the client retries): the
        # reply was built and counted, so the ledger still balances.
        server = ZoneServer(evaluation_zone(), status_port=None)
        sock = ScriptedUdpSocket([(query_wire("www.example.com."), CLIENT)],
                                 send_error=BlockingIOError())
        server.read_datagrams(sock)
        assert server.metrics.send_failures == 1
        assert server.metrics.responses == 1
        assert server.metrics.conservation()["conserved"]


class TestRateLimit:
    def test_over_limit_datagrams_dropped(self):
        # rate 1 qps, burst 2: the third back-to-back packet is dropped.
        server = ZoneServer(evaluation_zone(), rate_limit=1.0)
        wire = query_wire("www.example.com.")
        assert server.handle_packet(wire, "192.0.2.1")
        assert server.handle_packet(wire, "192.0.2.1")
        assert server.handle_packet(wire, "192.0.2.1") == b""
        assert server.metrics.dropped_ratelimit == 1
        # A different client has its own bucket.
        assert server.handle_packet(wire, "192.0.2.2")


class TestStatusChannel:
    def test_status_json_over_tcp(self):
        async def run(server):
            await udp_query(server, query_wire("www.example.com."))
            reader, writer = await asyncio.open_connection(
                server.host, server.status_port
            )
            line = await asyncio.wait_for(reader.readline(), 5.0)
            writer.close()
            await writer.wait_closed()
            status = json.loads(line)
            assert status["version"] == "verified"
            assert status["snapshot"]["sequence"] == 0
            assert status["snapshot"]["digest"] == server.snapshot.digest
            assert status["metrics"]["queries_udp"] == 1
            assert status["gate"]["alarm"] is None

        with_server(run, status_port=0)


class TestHotSwap:
    def test_publish_during_query_burst_drops_nothing(self):
        # The acceptance-criterion scenario: a benign delta verifies and
        # swaps while loopback queries are in flight; every query gets an
        # answer and the snapshot sequence advances.
        zone = parse_zone_text(MINIMAL_ZONE_TEXT)
        delta = parse_zone_text(
            MINIMAL_ZONE_TEXT.replace("192.0.2.10", "192.0.2.99")
        )

        async def main():
            server = ZoneServer(zone, status_port=None)
            await server.start()
            try:
                server.gate.bootstrap()  # warm the partition cache
                before = server.snapshot.sequence

                async def pummel():
                    answered = 0
                    wire = query_wire("www.example.com.")
                    while server.snapshot.sequence == before:
                        reply = await udp_query(server, wire)
                        _, response = parse_response(reply)
                        assert response.rcode is RCode.NOERROR
                        answered += 1
                    return answered

                burst, result = await asyncio.gather(
                    pummel(), server.publish(delta)
                )
                assert result.accepted
                assert server.snapshot.sequence == before + 1
                assert burst > 0  # queries flowed during the gate check
                assert server.metrics.servfail == 0
                assert server.metrics.dropped_malformed == 0
                # The swapped snapshot serves the new rdata.
                reply = await udp_query(server, query_wire("www.example.com."))
                _, response = parse_response(reply)
                assert response.answer[0].rdata.to_text() == "192.0.2.99"
            finally:
                await server.stop()

        asyncio.run(main())
