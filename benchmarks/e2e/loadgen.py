"""UDP load from one thread and one socket, in two modes.

Closed loop (:meth:`Generator.closed_loop`): a fixed number of queries is
kept outstanding, each answer releasing the next query. With one
outstanding this is a single client waiting for each answer, and the
latency is the program's own round trip; with more the server is never
idle and answers per second is its capacity.

Open loop (:meth:`Generator.run`): independent clients do not wait for
each other's answers, so queries are sent when they fall due whether or
not earlier ones were answered, and every latency is charged from the
query's *due* time — a stall in the server (or in this generator) shows
up in every query that waited behind it. The generator's own lateness
(send time minus due time) is recorded so a run can be rejected when the
generator, not the server, was slow.

In both, a query unanswered :data:`RETRY_S` after it was sent is sent
again, as a stub resolver would, up to :data:`MAX_TRIES` times; only a
query that gets no answer at all counts as lost. Its latency runs from
the first send (or due time).

Nothing here imports the program under test: queries are encoded by hand
and replies are matched by transaction id and echoed question only.
"""

from __future__ import annotations

import gc
import math
import random
import select
import socket
import struct
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: A query unanswered this long after it was sent is sent again, up to
#: MAX_TRIES sends in all; unanswered after the last, it is lost.
RETRY_S = 0.5
MAX_TRIES = 3

RCODE_SERVFAIL = 2
QCLASS_IN = 1


def encode_name(labels: Sequence[str]) -> bytes:
    """Uncompressed wire form of a fully qualified name."""
    out = bytearray()
    for label in labels:
        raw = label.encode("ascii")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


def encode_query(labels: Sequence[str], qtype: int) -> bytes:
    """A one-question query with transaction id 0 and RD clear."""
    header = struct.pack("!HHHHHH", 0, 0, 1, 0, 0, 0)
    return header + encode_name(labels) + struct.pack("!HH", qtype, QCLASS_IN)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``q`` in 0..1)."""
    if not sorted_values:
        return math.inf
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def poisson_schedule(rng: random.Random, rate: float,
                     duration: float) -> List[float]:
    """Due times (seconds from phase start) of Poisson arrivals."""
    due: List[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def zipf_picks(rng: random.Random, distinct: int, count: int,
               exponent: float = 1.2) -> List[int]:
    """``count`` ranks in [0, distinct) drawn from Zipf(``exponent``)."""
    cumulative = []
    total = 0.0
    for rank in range(1, distinct + 1):
        total += rank ** -exponent
        cumulative.append(total)
    return [min(bisect_left(cumulative, rng.random() * total), distinct - 1)
            for _ in range(count)]


@dataclass
class Phase:
    """What one phase sent and got back."""

    #: Queries sent (each counted once, however often it was retried).
    offered: int = 0
    #: Open loop: per send, in send order (inf = lost); closed loop: per
    #: answered query, in answer order.
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    #: Open loop: when each query was first sent (``time.perf_counter``).
    sent_s: List[float] = field(default_factory=list)
    lost: int = 0
    retries: int = 0
    servfail: int = 0
    wrong: int = 0  # reply whose question does not match what was sent
    #: Reply bytes per send index, kept when the caller asked for them.
    replies: Dict[int, bytes] = field(default_factory=dict)
    picks: List[int] = field(default_factory=list)
    #: Closed loop: seconds from the first send to the last answer.
    elapsed_s: float = 0.0

    @property
    def answered(self) -> int:
        return self.offered - self.lost

    @property
    def failed(self) -> int:
        # A wrongly answered query stays unanswered, so ``lost`` has it.
        return self.lost + self.servfail

    def latency_ms(self, q: float) -> float:
        return percentile(sorted(self.latencies_ms), q)


class _Matcher:
    """Outstanding queries by transaction id; classifies each reply."""

    def __init__(self, phase: Phase, packets: Sequence[bytes], keep_replies: bool,
                 txid: int):
        self.phase = phase
        self.packets = packets
        self.questions = [p[12:] for p in packets]
        self.keep = keep_replies
        self.pending: Dict[int, int] = {}  # txid -> send index
        self.tries: Dict[int, int] = {}  # send index -> sends so far
        #: (send time, txid) in send order, for finding queries to retry.
        self.sends: Deque[Tuple[float, int]] = deque()
        self.extra: Dict[int, Callable[[bytes, float], None]] = {}
        self._txid = txid

    def next_txid(self) -> int:
        self._txid = (self._txid + 1) & 0xFFFF
        return self._txid

    def send(self, sock: socket.socket, index: int, now: float) -> None:
        """Send query ``index`` (again, if it was sent before)."""
        txid = self.next_txid()
        self.pending[txid] = index
        self.tries[index] = self.tries.get(index, 0) + 1
        self.sends.append((now, txid))
        packet = self.packets[self.phase.picks[index % len(self.phase.picks)]]
        sock.send(txid.to_bytes(2, "big") + packet[2:])

    def expired(self, now: float) -> List[int]:
        """Indices whose latest send is unanswered after RETRY_S; each
        leaves ``pending``."""
        out = []
        while self.sends and now - self.sends[0][0] > RETRY_S:
            _, txid = self.sends.popleft()
            index = self.pending.pop(txid, None)
            if index is not None:
                out.append(index)
        return out

    def match(self, data: bytes, now: float) -> Optional[int]:
        """The send index ``data`` answers (None for probes and strays);
        counts wrong questions and SERVFAILs."""
        phase = self.phase
        if len(data) < 12:
            return None
        txid = (data[0] << 8) | data[1]
        callback = self.extra.pop(txid, None)
        if callback is not None:
            callback(data, now)
            return None
        index = self.pending.pop(txid, None)
        if index is None:  # answer to a send already retried or given up
            return None
        question = self.questions[phase.picks[index % len(phase.picks)]]
        if data[12:12 + len(question)] != question or not data[2] & 0x80:
            phase.wrong += 1
            return None
        if self.keep:
            phase.replies[index] = data
        if data[3] & 0x0F == RCODE_SERVFAIL:
            phase.servfail += 1
        return index


class Generator:
    """One connected UDP socket to the server, reused across phases."""

    def __init__(self, host: str, port: int):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 21)
        self.sock.connect((host, port))
        self.sock.setblocking(False)
        self._txid = 0
        #: Extra queries another thread asks to be sent as soon as
        #: possible (the churn probes); drained by the open-loop sender.
        self.extras: Deque[Tuple[bytes, Callable[[bytes, float], None]]] = deque()

    def close(self) -> None:
        self.sock.close()

    def _replies(self):
        while True:
            try:
                yield self.sock.recv(4096)
            except (BlockingIOError, ConnectionRefusedError):
                return

    def _phase(self, packets, picks, keep_replies) -> Tuple[Phase, _Matcher]:
        phase = Phase(picks=list(picks))
        # Transaction ids keep counting across phases, so a late answer
        # from one phase is not taken for one of the next.
        return phase, _Matcher(phase, packets, keep_replies, self._txid)

    def _end(self, matcher: _Matcher) -> None:
        self._txid = matcher._txid

    def _retry(self, matcher: _Matcher, phase: Phase, now: float,
               given_up: Callable[[int], None]) -> None:
        for index in matcher.expired(now):
            if matcher.tries[index] < MAX_TRIES:
                phase.retries += 1
                matcher.send(self.sock, index, now)
            else:
                given_up(index)

    def closed_loop(self, packets: Sequence[bytes], picks: Sequence[int],
                    window: int, duration: Optional[float] = None,
                    keep_replies: bool = False) -> Phase:
        """Keep ``window`` queries outstanding, sending ``packets[picks[i]]``
        in order: for ``duration`` seconds (cycling through ``picks``), or
        with ``duration`` None until each pick was sent once. Then wait
        for the outstanding answers."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._closed_loop(packets, picks, window, duration, keep_replies)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _closed_loop(self, packets, picks, window, duration, keep_replies) -> Phase:
        clock = time.perf_counter
        phase, matcher = self._phase(packets, picks, keep_replies)
        limit = len(picks) if duration is None else math.inf
        first_sent: Dict[int, float] = {}
        outstanding = 0
        i = 0

        def send_next(now: float) -> None:
            nonlocal i, outstanding
            first_sent[i] = now
            matcher.send(self.sock, i, now)
            i += 1
            outstanding += 1

        def give_up(index: int) -> None:
            nonlocal outstanding
            phase.lost += 1
            outstanding -= 1
            del first_sent[index]

        start = last = clock()
        end = start + (duration if duration is not None else math.inf)
        while outstanding < window and i < limit:
            send_next(start)
        while outstanding:
            select.select([self.sock], [], [], 0.05)
            now = clock()
            for data in self._replies():
                index = matcher.match(data, now)
                if index is None:
                    continue
                phase.latencies_ms.append((now - first_sent.pop(index)) * 1000.0)
                outstanding -= 1
                last = now
                if now < end and i < limit:
                    send_next(now)
            self._retry(matcher, phase, now, give_up)
            while outstanding < window and now < end and i < limit:
                send_next(now)  # a query given up on frees its place
        self._end(matcher)
        phase.offered = i
        phase.elapsed_s = last - start
        return phase

    def run(self, packets: Sequence[bytes], picks: Sequence[int],
            due: Sequence[float], keep_replies: bool = False,
            stop: Optional[Callable[[], bool]] = None,
            pause: Optional[Callable[[], None]] = None,
            pause_every: float = math.inf) -> Phase:
        """Open loop: send ``packets[picks[i]]`` at ``due[i]`` seconds
        from now. ``stop`` is polled between sends; once it returns true
        the remaining queries are not offered. ``pause`` is called after
        every ``pause_every`` seconds of sending; the time it takes is
        left out of the schedule, of the lateness and of every latency."""
        # A collection pass in this process would show up as server latency.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._open_loop(packets, picks, due, keep_replies, stop,
                                   pause, pause_every)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _open_loop(self, packets, picks, due, keep_replies, stop, pause,
                   pause_every) -> Phase:
        sock = self.sock
        clock = time.perf_counter
        phase, matcher = self._phase(packets, picks, keep_replies)
        n = len(due)
        sent_at = [0.0] * n
        sent_s = [0.0] * n
        latencies = [math.inf] * n
        # Times are taken from ``start``, which moves on by each pause.
        start = clock()
        next_pause = math.inf if pause is None else pause_every

        def receive() -> None:
            now = clock()
            for data in self._replies():
                index = matcher.match(data, now)
                if index is not None:
                    latencies[index] = (now - start - due[index]) * 1000.0
            self._retry(matcher, phase, now, lambda index: None)

        i = 0
        while i < n:
            if clock() - start >= next_pause:
                paused = clock()
                pause()
                start += clock() - paused
                next_pause += pause_every
            while self.extras:
                packet, callback = self.extras.popleft()
                txid = matcher.next_txid()
                matcher.extra[txid] = callback
                sock.send(txid.to_bytes(2, "big") + packet[2:])
            offset = clock() - start
            while i < n and due[i] <= offset:
                matcher.send(sock, i, start + offset)
                sent_at[i] = offset
                sent_s[i] = start + offset
                i += 1
                offset = clock() - start
            receive()
            if stop is not None and stop():
                break
            if i < n:
                wait = due[i] - (clock() - start)
                if wait > 0:
                    select.select([sock], [], [], min(wait, 0.01))
                    receive()
        phase.offered = i
        # Drain: every query gets its retries before it counts as lost.
        while matcher.pending:
            select.select([sock], [], [], 0.05)
            receive()
        self._end(matcher)
        phase.latencies_ms = latencies[:i]
        phase.lost = sum(1 for x in phase.latencies_ms if x == math.inf)
        phase.late_ms = [(sent_at[k] - due[k]) * 1000.0 for k in range(i)]
        phase.sent_s = sent_s[:i]
        return phase
