"""Tests of the benchmark harness itself (not of the program).

Run from the repository root: ``python3 -m pytest -q benchmarks/e2e``.
They stay outside the repository's tier-1 test paths.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import calibrate  # noqa: E402
import expected  # noqa: E402
import loadgen  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


# -- spans ---------------------------------------------------------------------


def span(span_id, parent, start, end, name="x", trace=1):
    return [trace, span_id, parent, name, start, end, 1]


def test_self_time_subtracts_the_union_of_children():
    table = traced.SpanTable([
        span(1, 0, 0, 100, "root"),
        span(2, 1, 10, 40, "a"),
        span(3, 1, 30, 60, "b"),  # overlaps a by 10
        span(4, 2, 15, 20, "c"),
    ])
    assert traced.covered_ns([(10, 40), (30, 60)]) == 50
    assert table.self_ns(table.by_id[1]) == 50
    assert table.self_ns(table.by_id[2]) == 25
    assert table.root_name(table.by_id[4]) == "root"


def test_children_must_sum_to_the_parent_within_two_percent():
    balanced = traced.SpanTable([
        span(1, 0, 0, 1000), span(2, 1, 0, 500), span(3, 1, 500, 990),
    ])
    assert balanced.unbalanced_roots() == []
    overlapping = traced.SpanTable([
        span(1, 0, 0, 1000), span(2, 1, 0, 600), span(3, 1, 500, 990),
    ])
    assert len(overlapping.unbalanced_roots()) == 1  # 100/1000 counted twice
    escaping = traced.SpanTable([span(1, 0, 0, 100), span(2, 1, 50, 120)])
    assert len(escaping.unbalanced_roots()) == 1


def test_rollup_attributes_engine_time_by_root(tmp_path):
    lines = [
        span(1, 0, 0, 100, "serve.handle", trace=1),
        span(2, 1, 10, 50, "engine.run", trace=1),
        span(3, 0, 200, 400, "core.verify", trace=3),
        span(4, 3, 210, 300, "engine.run", trace=3),
        span(5, 3, 300, 390, "solver.check", trace=3),
        span(6, 5, 310, 350, "solver.check", trace=3),
    ]
    path = tmp_path / "1.jsonl"
    path.write_text("\n".join(json.dumps(x) for x in lines)
                    + "\n" + json.dumps({"counters": {"solver.unsat": 1}}) + "\n")
    rollup = traced.Rollup()
    rollup.add_file(path)
    assert rollup.calls["engine.run"] == 1
    assert rollup.calls["core.validate"] == 1
    assert rollup.mean_us("engine.run") == pytest.approx(0.04)
    # Nested same-name spans count once toward inclusive time.
    assert rollup.seconds("solver.check") == pytest.approx(90e-9)
    assert rollup.unbalanced == 0
    metrics = traced.layer_metrics(rollup)
    assert metrics["solver.check_calls"] == 2
    assert metrics["solver.unsat_ratio"] == pytest.approx(0.5)


# -- load generation -----------------------------------------------------------


class StubServer:
    """UDP echo that answers with QR set; optionally stalls, paces, or
    drops the first ``drop`` queries."""

    def __init__(self, stall_at=None, stall_s=0.0, service_s=0.0, drop=0):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self.stall_at, self.stall_s, self.service_s = stall_at, stall_s, service_s
        self.drop = drop
        self.running = True
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        seen = 0
        while self.running:
            try:
                data, addr = self.sock.recvfrom(4096)
            except socket.timeout:
                continue
            seen += 1
            if seen <= self.drop:
                continue
            if seen == self.stall_at:
                time.sleep(self.stall_s)
            if self.service_s:
                time.sleep(self.service_s)
            self.sock.sendto(data[:2] + bytes([data[2] | 0x80]) + data[3:], addr)

    def close(self):
        self.running = False
        self.thread.join(timeout=5)
        self.sock.close()


def test_open_loop_charges_latency_from_the_due_time():
    stub = StubServer(stall_at=20, stall_s=0.05)
    gen = loadgen.Generator("127.0.0.1", stub.port)
    try:
        packets = [loadgen.encode_query(("a", "example"), 1)]
        due = [i * 0.002 for i in range(100)]  # one query every 2 ms
        phase = gen.run(packets, [0] * len(due), due)
    finally:
        gen.close()
        stub.close()
    lat = phase.latencies_ms
    assert phase.offered == 100 and phase.failed == 0
    # Query 19 (the 20th) waited out the stall; those due during it were
    # sent on time but answered after it, so each is charged the rest of
    # the stall from its own due time.
    assert 45.0 <= lat[19] <= 80.0
    assert lat[29] == pytest.approx(lat[19] - 20.0, abs=8.0)
    assert max(lat[60:]) < 10.0
    # The stub shares this process's interpreter lock, so sends can be late.
    assert loadgen.percentile(sorted(phase.late_ms), 0.99) < 20.0


def test_open_loop_leaves_pauses_out_of_the_schedule():
    stub = StubServer()
    gen = loadgen.Generator("127.0.0.1", stub.port)
    pauses = []
    try:
        packets = [loadgen.encode_query(("a", "example"), 1)]
        due = [i * 0.002 for i in range(100)]
        started = time.perf_counter()
        phase = gen.run(packets, [0] * len(due), due,
                        pause=lambda: pauses.append(time.sleep(0.05)), pause_every=0.05)
        took = time.perf_counter() - started
    finally:
        gen.close()
        stub.close()
    # Three pauses of 50 ms in 0.2 s of sending: nothing waited on them.
    assert len(pauses) == 3 and took >= 0.3
    assert phase.failed == 0 and max(phase.latencies_ms) < 10.0
    assert loadgen.percentile(sorted(phase.late_ms), 0.99) < 20.0


def test_closed_loop_finds_a_synthetic_capacity():
    stub = StubServer(service_s=0.001)  # at most ~1000 answers per second
    gen = loadgen.Generator("127.0.0.1", stub.port)
    try:
        packets = [loadgen.encode_query(("a", "example"), 1)]
        phase = gen.closed_loop(packets, [0], window=8, duration=1.0)
    finally:
        gen.close()
        stub.close()
    assert 700 <= phase.answered / phase.elapsed_s <= 1100
    assert phase.failed == 0 and phase.retries == 0


def test_a_dropped_query_is_sent_again_not_lost():
    stub = StubServer(drop=2)
    gen = loadgen.Generator("127.0.0.1", stub.port)
    try:
        packets = [loadgen.encode_query(("a", "example"), 1),
                   loadgen.encode_query(("b", "example"), 1)]
        phase = gen.closed_loop(packets, [0, 1], window=1, keep_replies=True)
    finally:
        gen.close()
        stub.close()
    # The first query was dropped twice and answered on its third send.
    assert phase.offered == 2 and phase.failed == 0 and phase.retries == 2
    assert phase.latencies_ms[0] >= 2 * loadgen.RETRY_S * 1000.0
    assert sorted(phase.replies) == [0, 1]


# -- calibration ---------------------------------------------------------------


def test_reference_seconds_scale_wall_time_by_the_measured_speed():
    full = calibrate.REFERENCE_SPEED
    assert calibrate.reference_seconds(2.0, full, full) == pytest.approx(2.0)
    # At half speed throughout, two wall seconds are one reference second.
    assert calibrate.reference_seconds(2.0, full / 4, 3 * full / 4) == pytest.approx(1.0)
    # Served traffic follows the speed less closely than computation does.
    assert calibrate.serving_scale(full, full) == pytest.approx(1.0)
    assert 0.5 < calibrate.serving_scale(full / 2, full / 2) < 1.0


class HalfSpeed(calibrate.Calibrator):
    def measure(self):
        self.speeds.append(calibrate.REFERENCE_SPEED / 2)
        return self.speeds[-1]


def test_slicer_stops_a_computing_process_for_each_calibration():
    cal = HalfSpeed(None)
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c",
                             "import time\nt = time.process_time()\n"
                             "while time.process_time() - t < 0.7: pass"])
    try:
        slicer = calibrate.Slicer(cal, proc, started, cal.measure())
        assert slicer.wait_exit(30.0)
        timing = slicer.finish()
    finally:
        proc.wait()
    # 0.7 s of CPU time, plus interpreter start, taken in slices of at
    # most SLICE_S, each ending in a calibration; at half speed the
    # reference time is half the wall time.
    assert 0.7 <= timing.raw_s < 3.0
    assert timing.slices >= 0.7 / calibrate.SLICE_S
    assert len(cal.speeds) == timing.slices + 1
    assert timing.ref_s == pytest.approx(timing.raw_s / 2)


# -- known answers -------------------------------------------------------------


def test_expected_covers_every_table2_row():
    assert [row for row, _, _ in expected.TABLE2_ROWS] == list(range(1, 10))
    assert {version for _, version, _ in expected.TABLE2_ROWS} <= set(expected.RELEASES)
    assert set(expected.VERDICTS) == set(expected.RELEASES)
    every = ["Wrong Flag", "Wrong Authority", "Wrong Answer", "Wrong Additional",
             "Wrong rcode", "Runtime Error"]
    for version in expected.RELEASES:
        verdict = expected.VERDICTS[version]
        found = [] if verdict == "VERIFIED" else every
        assert expected.verdict_problems(version, verdict, found) == []
    problems = expected.verdict_problems("v2.0", "BUG", ["Wrong Additional"])
    assert any("row 6" in p for p in problems)
    assert expected.verdict_problems("verified", "BUG", [])


def test_oracle_accepts_reference_answers_and_rejects_others():
    from repro.dns.wire import build_response
    from repro.spec import reference_resolve
    from repro.dns.message import Query
    from repro.dns.name import DnsName
    from repro.dns.rtypes import RRType
    from repro.zonegen import evaluation_zone

    zone = evaluation_zone()
    oracle = expected.Oracle(zone)
    labels = ("www", "example", "com")
    right = build_response(7, reference_resolve(zone, Query(DnsName(labels), RRType.A)))
    wrong = build_response(7, reference_resolve(zone, Query(DnsName(labels), RRType.TXT)))
    assert oracle.problem(labels, 1, right) is None
    assert oracle.problem(labels, 1, wrong) is not None
    assert oracle.problem(labels, 1, None) is not None


# -- inputs --------------------------------------------------------------------


def inputs_for(seed, workdir):
    from repro.zonegen import evaluation_zone, tld_zone

    ctx = workloads.Context(HERE.parents[1], seed, 12.0, workdir / str(seed))
    zone = evaluation_zone()
    wide = tld_zone(200, seed=seed)
    probes = workloads.probe_queries(zone, ctx.rng("probes"))
    stream = workloads.hashlib.sha256()
    rng = ctx.rng("fixed")
    due = loadgen.poisson_schedule(rng, 1000.0, 0.5)
    ranked = workloads.zipf_ranking(probes)
    workloads.stream_digest(stream, ranked,
                            loadgen.zipf_picks(rng, len(ranked.packets), len(due)), due)
    return (
        workloads.zone_file_text(zone, ctx.rng("zone")),
        probes.digest(),
        stream.hexdigest(),
        workloads.wide_queries(wide, sorted(wide.names()), ctx.rng("probes"), 50).digest(),
        [text for _, text, _ in workloads.churn_chain(zone, ctx.rng("chain 0"), 6)],
    )


def test_inputs_are_a_function_of_the_seed(tmp_path):
    first = inputs_for(5, tmp_path)
    assert inputs_for(5, tmp_path) == first
    assert all(a != b for a, b in zip(first, inputs_for(6, tmp_path)))


def test_round_shares_add_up_to_the_total():
    assert [workloads.round_share(16, 3, i) for i in range(3)] == [6, 5, 5]
    for total in range(0, 40):
        assert sum(workloads.round_share(total, 3, i) for i in range(3)) == total


# -- comparison ----------------------------------------------------------------


def run_record(seed, value, seconds=8.0, correct=True, failed=0):
    return {"workload": "w", "seed": seed, "seconds": seconds, "purpose": "measure",
            "correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"setup_s": value}, "inputs": {"zone": str(seed)}}


def compare_runs(tmp_path, a, b):
    import compare

    paths = []
    for name, runs in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        paths.append(str(path))
    return compare.main(paths)


def test_compare_refuses_or_rejects_what_it_cannot_judge(tmp_path):
    parent = [run_record(seed, 1.0 + seed / 100) for seed in range(10)]
    same = [run_record(seed, 1.0 + seed / 100) for seed in range(10)]
    assert compare_runs(tmp_path, parent, same) == 0
    longer = [run_record(seed, 1.0, seconds=12.0) for seed in range(10)]
    assert compare_runs(tmp_path, parent, longer) == 2
    # Faster, but one run answered wrongly or more operations failed.
    wrong = [run_record(seed, 0.5, correct=seed != 3) for seed in range(10)]
    assert compare_runs(tmp_path, parent, wrong) == 1
    lossy = [run_record(seed, 0.5, failed=1) for seed in range(10)]
    assert compare_runs(tmp_path, parent, lossy) == 1
