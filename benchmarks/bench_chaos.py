"""Chaos-plane benchmark: degraded-mode throughput and crash recovery.

Two questions the degradation ladder and the publish journal exist to
answer, measured:

- **qps per ladder rung** — how fast ``handle_packet`` answers with the
  overload controller pinned at NORMAL, TRUNCATE, and SERVFAIL_SHED,
  on questions that miss the answer memo (it is emptied before each
  one). Degraded modes exist to be *cheaper* than resolving: TRUNCATE
  skips the resolve entirely and SERVFAIL_SHED answers shed clients
  with 12 header bytes, so both must beat NORMAL or the ladder sheds
  nothing.
- **hit qps per rung** — the same rungs on questions the memo holds. A
  hit runs no engine, so the server answers it in full ahead of the
  TRUNCATE and SERVFAIL_SHED checks; a degraded rung serving hits at
  under half of NORMAL's hit qps means the ladder taxes answers it
  already has.
- **recovery time** — how long a SIGKILL'd server takes to come back:
  the digest-match path (journal head == on-disk zone: adopt and serve,
  no prover) and the re-verify path (journal ran ahead: a full
  bootstrap verification gates startup).

Run under pytest (``pytest benchmarks/bench_chaos.py``) for the
pytest-benchmark harness, or standalone for machine-readable output::

    PYTHONPATH=src python benchmarks/bench_chaos.py \
        [--queries N] [--out BENCH_chaos.json]
"""

import argparse
import json
import os
import sys
import tempfile
import time

from repro.dns.zonefile import parse_zone_text
from repro.incremental.digest import zone_digest
from repro.serve import (
    PublishJournal,
    ZoneServer,
    degrade,
)
from repro.serve.journal import JournalRecord
from repro.zonegen import evaluation_zone
from repro.zonegen.corpus import MINIMAL_ZONE_TEXT

from bench_serve import wire_mix  # the representative query mix


def pinned_server(level):
    """A server whose ladder is pinned at ``level`` (tick disabled)."""
    controller = degrade.OverloadController(100.0, interval=1e9)
    controller.level = level
    return ZoneServer(evaluation_zone(), degrade=controller)


#: A degraded rung must serve memo hits at no less than this share of
#: NORMAL's hit qps.
MIN_HIT_SHARE = 0.5


def measure_rung_qps(level, num_queries, hits=False):
    """qps and µs per query at ``level``. Every question misses the memo
    (emptied before each one) unless ``hits``, when every question is
    memoised at NORMAL first and answered from the memo."""
    # Clients rotate so SERVFAIL_SHED exercises both its branches (a
    # fixed client is deterministically shed-or-not, which would bench
    # only one of them).
    server = pinned_server(degrade.NORMAL)
    wires = wire_mix()
    clients = [f"198.51.100.{i}" for i in range(16)]
    for wire in wires:  # warm: intern tables, engine module import, memo
        server.handle_packet(wire, clients[0])
    server.degrade.level = level
    answers = server.snapshot.answers
    hits_before = server.metrics.answer_cache_hits
    start = time.perf_counter()
    if hits:
        for i in range(num_queries):
            server.handle_packet(wires[i % len(wires)], clients[i % 16])
    else:
        for i in range(num_queries):
            answers.clear()
            server.handle_packet(wires[i % len(wires)], clients[i % 16])
    elapsed = time.perf_counter() - start
    assert server.metrics.conservation()["conserved"]
    served_hits = server.metrics.answer_cache_hits - hits_before
    assert served_hits == (num_queries if hits else 0), served_hits
    return num_queries / elapsed, 1e6 * elapsed / num_queries


def measure_recovery(workdir):
    """Both boot-recovery paths, timed from constructor to serveable."""
    zone = parse_zone_text(MINIMAL_ZONE_TEXT)
    digest = zone_digest(zone)

    # Digest match: the journal head names the on-disk zone. No prover.
    match_path = os.path.join(workdir, "match.journal")
    PublishJournal(match_path).append(JournalRecord(
        sequence=4, digest=digest, verdict="VERIFIED", source="publish"))
    start = time.perf_counter()
    server = ZoneServer(zone, journal=match_path, status_port=None)
    adopt_seconds = time.perf_counter() - start
    assert server.recovered_sequence == 4

    # Journal ahead: head names a zone that never hit the disk, so
    # start() must re-verify before binding a socket.
    import asyncio

    ahead_path = os.path.join(workdir, "ahead.journal")
    PublishJournal(ahead_path).append(JournalRecord(
        sequence=9, digest="crashed-before-the-swap",
        verdict="VERIFIED", source="publish"))
    server = ZoneServer(zone, journal=ahead_path, status_port=None)

    async def boot():
        await server.start()
        await server.stop()

    start = time.perf_counter()
    asyncio.run(boot())
    reverify_seconds = time.perf_counter() - start
    assert server.recovered_sequence == 10

    return {
        "digest_match_seconds": round(adopt_seconds, 4),
        "reverify_seconds": round(reverify_seconds, 4),
    }


# -- pytest harness ----------------------------------------------------------


RUNGS = (("NORMAL", degrade.NORMAL),
         ("TRUNCATE", degrade.TRUNCATE),
         ("SERVFAIL_SHED", degrade.SERVFAIL_SHED))


def test_degraded_rungs_are_cheaper_than_normal(benchmark):
    def run():
        return {(name, hits): measure_rung_qps(level, 3000, hits)[0]
                for name, level in RUNGS for hits in (False, True)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for (name, hits), qps in results.items():
        print(f"  {name} {'hits' if hits else 'misses'}: {qps:,.0f} qps")
    assert results["TRUNCATE", False] > results["NORMAL", False]
    assert results["SERVFAIL_SHED", False] > results["NORMAL", False]
    for name in ("TRUNCATE", "SERVFAIL_SHED"):
        assert results[name, True] >= MIN_HIT_SHARE * results["NORMAL", True]


def test_recovery_paths(benchmark):
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            return measure_recovery(tmp)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"  digest-match {report['digest_match_seconds']}s, "
          f"re-verify {report['reverify_seconds']}s")
    # Adopting a matching journal must not pay for a verification.
    assert report["digest_match_seconds"] < report["reverify_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=20000,
                        help="query count per ladder rung")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON document to FILE "
                        "(e.g. BENCH_chaos.json)")
    args = parser.parse_args(argv)

    rungs = {}
    hit_rungs = {}
    for name, level in RUNGS:
        for table, hits in ((rungs, False), (hit_rungs, True)):
            qps, micros = measure_rung_qps(level, args.queries, hits)
            table[name] = {"qps": round(qps, 1),
                           "query_micros": round(micros, 2)}

    with tempfile.TemporaryDirectory() as tmp:
        recovery = measure_recovery(tmp)

    document = {
        "benchmark": "chaos",
        "zone": "evaluation",
        "queries_per_rung": args.queries,
        "rungs": rungs,
        "hit_rungs": hit_rungs,
        "degraded_speedup": {
            "truncate_vs_normal": round(
                rungs["TRUNCATE"]["qps"] / rungs["NORMAL"]["qps"], 2),
            "shed_vs_normal": round(
                rungs["SERVFAIL_SHED"]["qps"] / rungs["NORMAL"]["qps"], 2),
        },
        "recovery": recovery,
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    degraded_cheaper = (
        rungs["TRUNCATE"]["qps"] > rungs["NORMAL"]["qps"]
        and rungs["SERVFAIL_SHED"]["qps"] > rungs["NORMAL"]["qps"]
    )
    if not degraded_cheaper:
        print("FAIL: a degraded rung is slower than NORMAL — the ladder "
              "sheds nothing", file=sys.stderr)
        return 1
    slow_hits = [name for name in ("TRUNCATE", "SERVFAIL_SHED")
                 if hit_rungs[name]["qps"]
                 < MIN_HIT_SHARE * hit_rungs["NORMAL"]["qps"]]
    if slow_hits:
        print(f"FAIL: {', '.join(slow_hits)} serve memo hits at under "
              f"{MIN_HIT_SHARE:.0%} of NORMAL's hit qps — the ladder taxes "
              f"answers the server already holds", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
