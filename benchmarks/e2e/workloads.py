"""The four workloads, driven against the unmodified program from outside.

Each workload makes its inputs from the seed (zone files, query streams,
rewritten zone files), runs ``repro verify`` / ``repro serve`` as child
processes on them, checks every verdict and sampled answer against
:mod:`expected`, and returns its end-to-end metrics. Every time is taken
in reference seconds (see :mod:`calibrate`; served traffic follows the
CPU's speed less closely and is scaled less):

- ``setup_s``: median, over the run's rounds, of the time from spawning
  ``repro serve`` until the status channel reports the boot verdict
  VERIFIED and a first reply matches the reference resolver; on
  verify-release, of one cold ``repro verify`` of a four-record zone;
- ``lat_p50_ms``: median time of the workload's request — one
  ``repro verify`` process on verify-release; one query with no other
  outstanding on serve-hot and serve-wide; one query of the open-loop
  traffic, charged from its due time, while a publish is under way on
  serve-churn;
- ``ops_per_s``: operations per second — versions verified back to
  back, queries answered with :data:`CAPACITY_WINDOW` always outstanding,
  or zone publishes back to back;
- ``peak_rss_mb``: the largest peak resident set of any program process.

A run is :data:`ROUNDS` rounds, each starting the program afresh (one
``setup_s`` sample) and then doing its share of the measured work. How
much work a run does is fixed by the seed and ``seconds``; on
serve-churn the publish count is fixed, and time is what is measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import calibrate
import expected
import loadgen

#: Rounds per run: program starts, each followed by a share of the work.
ROUNDS = 3
#: Queries kept outstanding while measuring capacity.
CAPACITY_WINDOW = 16
#: Queries drawn for each traffic slice, more than one slice sends
#: (a slice cycles through them if it gets further).
SLICE_POOL = 3000
#: serve-churn rewrites this owner's address, again and again, and asks
#: for it every PROBE_S until the new address is served. A run publishes
#: PUBLISHES_PER_S rewrites per second of ``seconds``, spread evenly over
#: its rounds, each under open-loop traffic at CHURN_RATE scheduled for
#: up to CHURN_TRAFFIC_S.
CHURN_OWNER = "www"
PUBLISHES_PER_S = 3.0
PROBE_S = 0.003
CHURN_RATE = 1000.0
CHURN_TRAFFIC_S = 10.0
#: Records in the serve-wide zone and answers checked against the oracle.
WIDE_SCALE = 20000
WIDE_CHECKED = 16
STATUS_POLL_S = 0.02
BOOT_TIMEOUT_S = 120.0
PUBLISH_TIMEOUT_S = 8.0
PROCESS_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The run cannot go on: a process died, hung, or answered wrongly
    where the rest of the run depends on the answer."""


@dataclass
class Context:
    """Where and how one workload run drives the program. ``stop_slices``
    lets a program be stopped for calibrations while it computes (off in
    traced runs, whose spans would include the stops)."""

    root: Path
    seed: int
    seconds: float
    workdir: Path
    traced: bool = False
    program_cpus: Optional[set] = None
    rounds: int = ROUNDS
    stop_slices: bool = True

    def __post_init__(self) -> None:
        for sub in ("home", "tmp", "cache", "trace"):
            (self.workdir / sub).mkdir(parents=True, exist_ok=True)
        self.log_path = self.workdir / "program.log"
        self.calibrator = calibrate.Calibrator(
            min(self.program_cpus) if self.program_cpus else None)

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}:{purpose}")

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(self.root / "src"),
            PYTHONUNBUFFERED="1",
            PYTHONHASHSEED="0",
            HOME=str(self.workdir / "home"),
            TMPDIR=str(self.workdir / "tmp"),
            REPRO_CACHE_DIR=str(self.workdir / "cache"),
            E2E_TRACE_DIR=str(self.workdir / "trace"),
        )
        return env

    def spawn(self, sub: str, args: Sequence[str], stdout) -> subprocess.Popen:
        if self.traced:
            command = [sys.executable, str(self.root / "benchmarks/e2e/traced.py")]
        else:
            command = [sys.executable, "-m", "repro"]
        with open(self.log_path, "ab") as log:
            proc = subprocess.Popen(command + [sub, *args], stdout=stdout,
                                    stderr=log, env=self.env(), cwd=self.workdir)
        if self.program_cpus:
            os.sched_setaffinity(proc.pid, self.program_cpus)
        return proc

    def slicer(self, proc: subprocess.Popen, started: float,
               before: float) -> calibrate.Slicer:
        return calibrate.Slicer(self.calibrator, proc, started, before,
                                calibrate.SLICE_S if self.stop_slices else None)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    retries: int = 0
    problems: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)
    inputs: Dict[str, str] = field(default_factory=dict)
    rss_mb: List[float] = field(default_factory=list)

    def check(self, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def count(self, phase: loadgen.Phase) -> None:
        self.attempted += phase.offered
        self.failed += phase.failed
        self.retries += phase.retries
        if phase.wrong:
            self.problems.append(f"{phase.wrong} repl(ies) for the wrong question")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def round_share(total: int, rounds: int, index: int) -> int:
    """Round ``index``'s part of ``total``, the remainder going to the
    first rounds, so the parts add up to ``total`` exactly."""
    return total // rounds + (1 if index < total % rounds else 0)


# -- inputs -------------------------------------------------------------------


def zone_file_text(zone, rng: random.Random) -> str:
    """The zone as a master file with its records in seeded order."""
    from repro.dns.zonefile import zone_to_text

    lines = zone_to_text(zone).splitlines()
    header = [line for line in lines if line.startswith("$")]
    records = [line for line in lines if line and not line.startswith("$")]
    rng.shuffle(records)
    return "\n".join(header + records) + "\n"


def write_atomically(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


@dataclass
class QuerySet:
    """Distinct queries as (labels, qtype) with their wire packets."""

    queries: List[Tuple[Tuple[str, ...], int]]

    def __post_init__(self) -> None:
        self.packets = [loadgen.encode_query(labels, qtype)
                        for labels, qtype in self.queries]

    def digest(self) -> str:
        return sha256(b"".join(self.packets))


def apex_soa(zone) -> Tuple[Tuple[str, ...], int]:
    """The query every set-up asks first, whatever the seed."""
    return tuple(zone.origin.labels), 6


def probe_queries(zone, rng: random.Random) -> QuerySet:
    """The apex SOA, then every other query of the differential corpus
    for ``zone`` in seeded order."""
    from repro.testing.differential import enumerate_queries

    first = apex_soa(zone)
    queries = [(tuple(q.qname.labels), int(q.qtype)) for q in enumerate_queries(zone)]
    queries = [q for q in queries if q != first]
    rng.shuffle(queries)
    return QuerySet([first] + queries)


def zipf_ranking(probes: QuerySet) -> QuerySet:
    """The probe queries in popularity order for Zipf draws. The order is
    the same for every seed, so every seed offers the same traffic mix
    and the seed only draws arrival times and which query comes next."""
    queries = sorted(probes.queries)
    random.Random("zipf ranking").shuffle(queries)
    return QuerySet(queries)


def wide_queries(zone, names: Sequence, rng: random.Random, count: int) -> QuerySet:
    """Mostly-distinct queries over a large zone: 60% existing owner
    names (``names``, the zone's owner names sorted), 20% fresh labels
    under the apex, 20% fresh labels under existing names, each with a
    uniformly drawn type."""
    from repro.dns.rtypes import QUERYABLE_TYPES

    origin = zone.origin.labels
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.6:
            labels = rng.choice(names).labels
        else:
            fresh = "".join(rng.choice(alphabet) for _ in range(rng.randint(6, 10)))
            parent = origin if roll < 0.8 else rng.choice(names).labels
            labels = (fresh,) + tuple(parent)
        out.append((tuple(labels), int(rng.choice(QUERYABLE_TYPES))))
    return QuerySet(out)


def churn_chain(zone, rng: random.Random,
                length: int) -> List[Tuple[object, str, bytes]]:
    """``length`` successive rewrites of :data:`CHURN_OWNER`'s address,
    as (zone, file text, new address in wire form) starting from
    ``zone``. Every rewrite changes rdata only and invalidates the same
    single unit, so each publish costs the same whatever the seed; the
    seed picks the addresses and the line order."""
    from repro.dns.rdata import ARdata
    from repro.dns.records import ResourceRecord
    from repro.dns.rtypes import RRType
    from repro.dns.zone import Zone

    owner = zone.origin.prepend(CHURN_OWNER)
    chain = []
    current = zone
    for octet in rng.sample(range(1, 255), length):
        address = ARdata(f"198.51.100.{octet}")
        records = [ResourceRecord(r.rname, r.rtype, address, r.ttl)
                   if r.rname == owner and r.rtype is RRType.A else r
                   for r in current.records]
        current = Zone(current.origin, tuple(records))
        chain.append((current, zone_file_text(current, rng), bytes([198, 51, 100, octet])))
    return chain


def stream_digest(digest, qset: QuerySet, picks: Sequence[int],
                  due: Sequence[float] = ()) -> None:
    """Fold a query stream — what is sent, and for an open loop when —
    into ``digest``."""
    for pick in picks:
        digest.update(qset.packets[pick])
    for at in due:
        digest.update(round(at * 1e9).to_bytes(8, "big"))


# -- the program --------------------------------------------------------------


class Server:
    """One ``repro serve`` child process and its status channel."""

    def __init__(self, ctx: Context, args: Sequence[str]):
        self.proc = ctx.spawn("serve", [*args, "--port", "0", "--status-port", "0"],
                              stdout=subprocess.PIPE)
        self._buffer = b""

    def wait_ready(self) -> None:
        """Read the listening line: where to send queries and ask status."""
        line = self.read_line(BOOT_TIMEOUT_S)
        match = re.search(r"on (\S+):(\d+) \(udp\+tcp\), status on port (\d+)", line)
        if match is None:
            raise BenchError(f"unexpected first line from repro serve: {line!r}")
        self.host = match.group(1)
        self.port = int(match.group(2))
        self.status_port = int(match.group(3))

    def read_line(self, timeout: float) -> str:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("repro serve printed nothing in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise BenchError(f"repro serve exited ({self.proc.wait()})")
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8", "replace")

    def wait_for_line(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            line = self.read_line(max(0.0, deadline - time.monotonic()))
            if line.startswith(prefix):
                return line

    def status(self) -> Dict:
        with socket.create_connection((self.host, self.status_port), timeout=10) as conn:
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return json.loads(b"".join(chunks))

    def wait_status(self, done: Callable[[Dict], bool], timeout: float) -> Dict:
        deadline = time.monotonic() + timeout
        while True:
            status = self.status()
            if done(status):
                return status
            if self.proc.poll() is not None:
                raise BenchError(f"repro serve exited ({self.proc.returncode})")
            if time.monotonic() > deadline:
                raise BenchError("status channel did not reach the expected state")
            time.sleep(STATUS_POLL_S)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for repro serve")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=PROCESS_TIMEOUT_S / 2)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def finish(out: Outcome, server: Server) -> None:
    """Record the server's peak memory, stop it and check it exited 0."""
    if server.proc.poll() is not None:
        raise BenchError(f"repro serve exited ({server.proc.returncode}) "
                         f"before the round ended")
    out.rss_mb.append(server.peak_rss_mb())
    out.check(None if server.stop() == 0 else
              f"repro serve exited {server.proc.returncode} after SIGTERM")


def verify_once(ctx: Context, zone_path: Path,
                version: str) -> Tuple[calibrate.Timing, float, Dict, int]:
    """One ``repro verify --json`` process: (its timing, peak RSS MB,
    result, exit status)."""
    out_path = ctx.workdir / f"verify-{version}.json"
    before = ctx.calibrator.measure()
    with open(out_path, "wb") as out:
        started = time.perf_counter()
        proc = ctx.spawn("verify", ["--zone", str(zone_path), "--version", version,
                                    "--json"], stdout=out)
    slicer = ctx.slicer(proc, started, before)
    try:
        exited = slicer.wait_exit(PROCESS_TIMEOUT_S)
    finally:
        timing = slicer.finish()
    if not exited:
        proc.kill()
        proc.wait()
        raise BenchError(f"repro verify --version {version} hung")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(out_path.read_text(encoding="utf-8"))
    except ValueError:
        result = {}
    return timing, usage.ru_maxrss / 1024.0, result, proc.returncode


# -- rounds -------------------------------------------------------------------


def check_replies(out: Outcome, phase: loadgen.Phase, qset: QuerySet,
                  oracle: Optional[expected.Oracle], seen: Dict[int, bytes]) -> None:
    """Count the phase, then check its answers: a question not in
    ``seen`` against the oracle (and its reply becomes the one ``seen``),
    a question in ``seen`` for being byte-identical to that reply."""
    out.count(phase)
    for index, data in phase.replies.items():
        pick = phase.picks[index % len(phase.picks)]
        labels, qtype = qset.queries[pick]
        if pick not in seen:
            seen[pick] = data[2:]
            problem = None if oracle is None else oracle.problem(labels, qtype, data)
        elif data[2:] != seen[pick]:
            problem = f"{'.'.join(labels)} type {qtype}: replies differ"
        else:
            problem = None
        if problem:
            out.failed += 1
            out.problems.append(problem)


def boot(ctx: Context, args: Sequence[str], oracle: expected.Oracle,
         probes: QuerySet) -> Tuple[Server, loadgen.Generator, calibrate.Timing]:
    """Start the server and a generator aimed at it; set-up ends at a
    VERIFIED boot verdict plus a correct first reply to ``probes``' first
    query."""
    before = ctx.calibrator.measure()
    started = time.perf_counter()
    server = Server(ctx, args)
    slicer = ctx.slicer(server.proc, started, before)
    gen = None
    try:
        server.wait_ready()
        status = server.wait_status(lambda s: s["gate"]["last_verdict"] is not None,
                                    BOOT_TIMEOUT_S)
        verdict = status["gate"]["last_verdict"]
        if verdict != "VERIFIED":
            raise BenchError(f"boot verdict {verdict}, expected VERIFIED")
        gen = loadgen.Generator(server.host, server.port)
        first = gen.closed_loop(probes.packets, [0], 1, keep_replies=True)
        timing = slicer.finish()
        labels, qtype = probes.queries[0]
        problem = oracle.problem(labels, qtype, first.replies.get(0))
        if problem:
            raise BenchError(f"first reply after boot is wrong: {problem}")
    except BaseException:
        slicer.finish()
        if gen is not None:
            gen.close()
        server.stop()
        raise
    return server, gen, timing


def run_rounds(ctx: Context, out: Outcome, args: Callable[[int], Sequence[str]],
               oracle: expected.Oracle, probes: QuerySet,
               work: Callable[[int, Server, loadgen.Generator], None],
               seen: Optional[Dict[int, bytes]] = None) -> None:
    """Each round: boot the server (one set-up sample), ask every probe
    query once and check the answers, then do the round's ``work``."""
    setups: List[calibrate.Timing] = []
    for index in range(ctx.rounds):
        server, gen, timing = boot(ctx, args(index), oracle, probes)
        setups.append(timing)
        try:
            sweep = gen.closed_loop(probes.packets, range(len(probes.packets)), 1,
                                    keep_replies=True)
            check_replies(out, sweep, probes, oracle, {} if seen is None else seen)
            work(index, server, gen)
            finish(out, server)
        finally:
            gen.close()
            server.stop()
    out.metrics["setup_s"] = statistics.median(t.ref_s for t in setups)
    out.details.update(setups_ref_s=[t.ref_s for t in setups],
                       setups_raw_s=[t.raw_s for t in setups])


# -- the workloads ------------------------------------------------------------


def evaluation_inputs(ctx: Context, out: Outcome):
    from repro.zonegen import evaluation_zone

    zone = evaluation_zone()
    text = zone_file_text(zone, ctx.rng("zone"))
    path = ctx.workdir / "evaluation.zone"
    path.write_text(text, encoding="utf-8")
    probes = probe_queries(zone, ctx.rng("probes"))
    out.inputs.update(zone=sha256(text.encode()), probes=probes.digest())
    return zone, path, text, probes


def verify_release(ctx: Context) -> Outcome:
    """No serving: each round is one cold start — ``repro verify`` of
    the verified engine on a four-record zone, which is interpreter
    start, imports, compile and analysis with almost no resolution work
    — then two of the six engine versions on the evaluation zone, one
    cold ``repro verify`` process each, back to back (closed loop)."""
    from repro.zonegen.corpus import minimal_zone

    out = Outcome()
    _, path, _, _ = evaluation_inputs(ctx, out)
    small_text = zone_file_text(minimal_zone(), ctx.rng("small zone"))
    small_path = ctx.workdir / "small.zone"
    small_path.write_text(small_text, encoding="utf-8")
    out.inputs["small_zone"] = sha256(small_text.encode())
    starts: List[calibrate.Timing] = []
    versions: Dict[str, Dict] = {}

    def verify(zone_path: Path, version: str) -> Tuple[calibrate.Timing, Dict]:
        timing, rss, result, code = verify_once(ctx, zone_path, version)
        out.rss_mb.append(rss)
        verdict = result.get("verdict", f"exit {code}")
        problems = expected.verdict_problems(version, verdict,
                                             result.get("bug_categories", ()))
        out.check("; ".join(problems) if problems else None)
        return timing, {"verdict": verdict, "ref_s": timing.ref_s,
                        "raw_s": timing.raw_s,
                        "solver_checks": result.get("solver_checks")}

    for index in range(ctx.rounds):
        starts.append(verify(small_path, "verified")[0])
        for version in expected.RELEASES[index::ctx.rounds]:
            versions[version] = verify(path, version)[1]
    times = [row["ref_s"] for row in versions.values()]
    out.metrics["setup_s"] = statistics.median(t.ref_s for t in starts)
    out.metrics["lat_p50_ms"] = statistics.median(times) * 1000.0
    out.metrics["ops_per_s"] = len(times) / sum(times)
    out.details.update(setups_ref_s=[t.ref_s for t in starts],
                       setups_raw_s=[t.raw_s for t in starts],
                       verify_ref_s=sum(times),
                       verify_raw_s=sum(row["raw_s"] for row in versions.values()),
                       versions=versions)
    return out


@dataclass
class Traffic:
    """The traffic slices of one serve run, in reference time."""

    latencies_ms: List[float] = field(default_factory=list)
    raw_latencies_ms: List[float] = field(default_factory=list)
    answered: int = 0
    raw_s: float = 0.0
    ref_s: float = 0.0
    #: Per slice: kind, raw median latency (ms) or rate (1/s), and the
    #: factor from wall to reference time.
    slices: List[Tuple[str, float, float]] = field(default_factory=list)

    def record(self, out: Outcome) -> None:
        out.metrics["lat_p50_ms"] = statistics.median(self.latencies_ms)
        out.metrics["ops_per_s"] = self.answered / self.ref_s
        raw = sorted(self.raw_latencies_ms)
        out.details.update(
            lat_samples=len(raw),
            lat_p50_raw_ms=loadgen.percentile(raw, 0.5),
            lat_p99_raw_ms=loadgen.percentile(raw, 0.99),
            ops_per_raw_s=self.answered / self.raw_s,
            slices=self.slices,
        )


def serve_load(ctx: Context, out: Outcome, args: Sequence[str], oracle,
               probes: QuerySet, draw: Callable, seen: Optional[Dict[int, bytes]]) -> None:
    """Each round: slices of traffic, one query outstanding (latency)
    and :data:`CAPACITY_WINDOW` outstanding (capacity) in turn, each
    :data:`calibrate.SLICE_S` long and between two calibrations. The
    queries are drawn before the first calibration, and the replies
    checked after the last."""
    slices = max(2 * ctx.rounds, 2 * round(ctx.seconds / (2 * calibrate.SLICE_S)))
    traffic = Traffic()
    stream = hashlib.sha256()
    rng = ctx.rng("traffic")

    def work(index: int, server: Server, gen: loadgen.Generator) -> None:
        pools = []
        for _ in range(2 * round_share(slices // 2, ctx.rounds, index)):
            qset, picks = draw(rng, SLICE_POOL)
            stream_digest(stream, qset, picks)
            pools.append((qset, picks))
        phases = []
        speed = ctx.calibrator.measure()
        for k, (qset, picks) in enumerate(pools):
            window = 1 if k % 2 == 0 else CAPACITY_WINDOW
            phase = gen.closed_loop(qset.packets, picks, window, calibrate.SLICE_S,
                                    keep_replies=True)
            after = ctx.calibrator.measure()
            scale = calibrate.serving_scale(speed, after)
            speed = after
            if window == 1:
                traffic.latencies_ms.extend(x * scale for x in phase.latencies_ms)
                traffic.raw_latencies_ms.extend(phase.latencies_ms)
                traffic.slices.append(("latency", phase.latency_ms(0.5), scale))
            else:
                traffic.answered += phase.answered
                traffic.raw_s += phase.elapsed_s
                traffic.ref_s += phase.elapsed_s * scale
                traffic.slices.append(("capacity", phase.answered / phase.elapsed_s, scale))
            phases.append((phase, qset))
        for phase, qset in phases:
            if seen is None:
                out.count(phase)
            else:
                check_replies(out, phase, qset, None, seen)

    run_rounds(ctx, out, lambda index: args, oracle, probes, work, seen)
    out.inputs["stream"] = stream.hexdigest()
    traffic.record(out)


def serve_hot(ctx: Context) -> Outcome:
    """The evaluation zone's ~300 distinct queries, Zipf(1.2)-ranked.
    Every reply is checked: the sweep's against the reference resolver,
    every later one for being byte-identical to the sweep's."""
    out = Outcome()
    zone, path, _, probes = evaluation_inputs(ctx, out)
    ranked = zipf_ranking(probes)
    # Replies by probe index; traffic draws by rank, so map ranks to probes.
    by_rank = [probes.queries.index(q) for q in ranked.queries]

    def draw(rng, count):
        return probes, [by_rank[r] for r in loadgen.zipf_picks(rng, len(by_rank), count)]

    serve_load(ctx, out, ["--zone", str(path)], expected.Oracle(zone), probes, draw, {})
    return out


def serve_wide(ctx: Context) -> Outcome:
    """A TLD-shaped zone and a key space far larger than the run. The
    sweep after each boot asks :data:`WIDE_CHECKED` queries drawn like
    the traffic, checked against the reference resolver."""
    from repro.zonegen import tld_zone

    out = Outcome()
    zone = tld_zone(WIDE_SCALE, seed=ctx.seed)
    text = zone_file_text(zone, ctx.rng("zone"))
    path = ctx.workdir / "wide.zone"
    path.write_text(text, encoding="utf-8")
    names = sorted(zone.names())
    sampled = wide_queries(zone, names, ctx.rng("probes"), WIDE_CHECKED)
    probes = QuerySet([apex_soa(zone)] + sampled.queries)
    out.inputs.update(zone=sha256(text.encode()), probes=probes.digest())

    def draw(rng, count):
        return wide_queries(zone, names, rng, count), list(range(count))

    serve_load(ctx, out, ["--zone", str(path), "--planner", "equivalence-class"],
               expected.Oracle(zone), probes, draw, None)
    return out


def serve_churn(ctx: Context) -> Outcome:
    """The zone file rewritten again and again, each rewrite re-verified
    through the publish gate while queries arrive at CHURN_RATE. Each
    publish runs between two calibrations, with its own traffic, which
    starts with the rewrite and stops once the new zone is served and
    checked; every :data:`calibrate.SLICE_S` of traffic the server is
    stopped for another calibration, and the traffic's schedule waits.
    The number of rewrites is fixed by ``seconds``; their time is what
    is measured.

    Query latency here follows the CPU's speed less than elsewhere: it is
    mostly how long a query waits for the interpreter lock, which the
    verifying thread gives up every switch interval (5 ms of wall time),
    so it is scaled by :data:`calibrate.CHURN_SENSITIVITY`."""
    from repro.dns.rtypes import RRType

    out = Outcome()
    zone, _, text, probes = evaluation_inputs(ctx, out)
    publishes = max(ctx.rounds, round(ctx.seconds * PUBLISHES_PER_S))
    chains = [churn_chain(zone, ctx.rng(f"chain {index}"),
                          round_share(publishes, ctx.rounds, index))
              for index in range(ctx.rounds)]
    out.inputs["deltas"] = sha256("".join(t for c in chains for _, t, _ in c).encode())
    paths = [ctx.workdir / f"churn-{index}.zone" for index in range(ctx.rounds)]
    for path in paths:
        path.write_text(text, encoding="utf-8")
    ranked = zipf_ranking(probes)
    traffic_rng = ctx.rng("traffic")
    stream = hashlib.sha256()
    latencies: List[float] = []
    raw_latencies: List[float] = []
    late: List[float] = []
    # (rewrite written, new address first served) per publish, and its timing.
    published: List[Tuple[float, float]] = []
    timings: List[calibrate.Timing] = []
    answers: Dict[Tuple[int, int, int], Optional[bytes]] = {}
    owner = (CHURN_OWNER,) + tuple(zone.origin.labels)
    targets = [(owner, int(RRType.A)), probes.queries[0],
               (tuple(zone.origin.labels), int(RRType.NS))]

    def ask(gen: loadgen.Generator, labels, qtype) -> Tuple[Optional[bytes], float]:
        """One query through the load socket: (reply, arrival time)."""
        reply: List[Tuple[bytes, float]] = []
        arrived = threading.Event()

        def got(data: bytes, now: float) -> None:
            reply.append((data, now))
            arrived.set()

        gen.extras.append((loadgen.encode_query(labels, qtype), got))
        arrived.wait(1.0)
        return reply[0] if reply else (None, time.perf_counter())

    def publish(server: Server, gen: loadgen.Generator, path: Path, new_text: str,
                address: bytes, sequence: int, key: Tuple[int, int]) -> None:
        """Rewrite the zone file and wait until the new address is what a
        client gets back; then check the publish and the probe answers."""
        started = time.perf_counter()
        write_atomically(path, new_text)
        while True:
            data, now = ask(gen, owner, int(RRType.A))
            if data is not None and address in data[12:]:
                break
            if now - started > PUBLISH_TIMEOUT_S:
                raise BenchError(f"rewrite {key} was never served")
            time.sleep(PROBE_S)
        published.append((started, now))
        status = server.wait_status(
            lambda s: s["gate"]["serving_sequence"] >= sequence, PUBLISH_TIMEOUT_S)
        if status["gate"]["last_verdict"] != "VERIFIED":
            raise BenchError(f"publish {key} held: {status['gate']}")
        for k, (labels, qtype) in enumerate(targets):
            answers[key + (k,)] = ask(gen, labels, qtype)[0]

    def work(index: int, server: Server, gen: loadgen.Generator) -> None:
        pauses = calibrate.Pauses(ctx.calibrator, server.proc)
        try:
            publish_chain(index, server, gen, pauses)
        finally:
            pauses.close()

    def publish_chain(index: int, server: Server, gen: loadgen.Generator,
                      pauses: calibrate.Pauses) -> None:
        # The reloader records the file's identity after boot verification;
        # a rewrite before then would be taken for the booted zone.
        server.wait_for_line("watching", BOOT_TIMEOUT_S)
        sequence = server.status()["gate"]["serving_sequence"]
        for step, (_, new_text, address) in enumerate(chains[index]):
            sequence += 1
            due = loadgen.poisson_schedule(traffic_rng, CHURN_RATE, CHURN_TRAFFIC_S)
            picks = loadgen.zipf_picks(traffic_rng, len(ranked.packets), len(due))
            stream_digest(stream, ranked, picks, due)
            done = threading.Event()
            failure: List[BaseException] = []

            def controller(text=new_text, address=address, sequence=sequence,
                           key=(index, step)) -> None:
                try:
                    publish(server, gen, paths[index], text, address, sequence, key)
                except BaseException as exc:  # re-raised on the main thread
                    failure.append(exc)
                finally:
                    done.set()

            before = ctx.calibrator.measure()
            thread = threading.Thread(target=controller, name="churn")
            thread.start()
            try:
                phase = gen.run(ranked.packets, picks, due, stop=done.is_set,
                                pause=pauses if ctx.stop_slices else None,
                                pause_every=calibrate.SLICE_S)
            finally:
                done.set()
                thread.join()
            after = ctx.calibrator.measure()
            if failure:
                raise failure[0]
            if len(phase.latencies_ms) == len(due):
                raise BenchError(f"the traffic ended before rewrite {step} was served")
            out.count(phase)
            written, served = published[-1]
            timing = pauses.timing(written, served, before, after)
            timings.append(timing)
            # The queries sent while the publish was under way.
            during = [x for x, sent in zip(phase.latencies_ms, phase.sent_s)
                      if written <= sent <= served]
            raw_latencies.extend(during)
            scale = (timing.ref_s / timing.raw_s) ** calibrate.CHURN_SENSITIVITY
            latencies.extend(x * scale for x in during)
            late.extend(phase.late_ms)

    # The publishing thread shares this process with the generator; a
    # short switch interval keeps it from delaying sends.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        run_rounds(ctx, out, lambda index: ["--zone", str(paths[index]), "--watch",
                                            str(paths[index]), "--interval", "0.01"],
                   expected.Oracle(zone), probes, work)
    finally:
        sys.setswitchinterval(switch)
    # Checked after the run: the probes sent once each rewrite was served.
    for (index, step, k), data in sorted(answers.items()):
        labels, qtype = targets[k]
        out.check(expected.Oracle(chains[index][step][0]).problem(labels, qtype, data))
    out.inputs["stream"] = stream.hexdigest()
    latencies.sort()
    raw_latencies.sort()
    out.metrics["lat_p50_ms"] = loadgen.percentile(latencies, 0.5)
    out.metrics["ops_per_s"] = len(timings) / sum(t.ref_s for t in timings)
    out.details.update(
        lat_samples=len(latencies),
        lat_p50_raw_ms=loadgen.percentile(raw_latencies, 0.5),
        lat_p99_raw_ms=loadgen.percentile(raw_latencies, 0.99),
        late_p99_ms=loadgen.percentile(sorted(late), 0.99),
        publishes=len(timings),
        publish_ref_s=[t.ref_s for t in timings],
        publish_raw_s=[t.raw_s for t in timings],
    )
    return out


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "verify-release": verify_release,
    "serve-hot": serve_hot,
    "serve-wide": serve_wide,
    "serve-churn": serve_churn,
}
