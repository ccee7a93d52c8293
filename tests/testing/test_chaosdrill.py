"""The serve-plane chaos drill: seeded packets, one real soak, the CLI.

The soak test is the expensive one in this file (~2s: it boots a real
server on loopback, drives ~120 packets with faults firing, lands gated
deltas and restarts over the journal) — it is the satellite's "fixed
seed, invariants hold" check. Everything else is cheap and pure.
"""

import json
import random
import struct

from repro import cli
from repro.testing.chaosdrill import ChaosDrillConfig, chaos_drill, next_packet


class TestNextPacket:
    def test_seeded_stream_is_deterministic(self):
        first = [next_packet(random.Random(42), 0x4000 + i, 0.2)
                 for i in range(64)]
        second = [next_packet(random.Random(42), 0x4000 + i, 0.2)
                  for i in range(64)]
        assert first == second

    def test_mix_contains_valid_and_malformed(self):
        rng = random.Random(3)
        packets = [next_packet(rng, i, 0.3) for i in range(128)]
        short = [p for p in packets if len(p) < 12]
        qr_set = [p for p in packets
                  if len(p) >= 12
                  and struct.unpack("!H", p[2:4])[0] & 0x8000]
        valid = [p for p in packets
                 if len(p) >= 12
                 and not struct.unpack("!H", p[2:4])[0] & 0x8000]
        assert short and qr_set and valid

    def test_zero_malformed_fraction_is_all_valid(self):
        rng = random.Random(1)
        assert all(len(next_packet(rng, i, 0.0)) >= 12 for i in range(64))


class TestSoakInvariants:
    def test_fixed_seed_soak_holds_every_invariant(self, tmp_path):
        config = ChaosDrillConfig(seed=7, queries=120, deltas=2,
                                  fault_rate=0.02, grace=1.0)
        report = chaos_drill(config, workdir=str(tmp_path))
        assert report.clean, report.describe()
        assert report.queries_sent == 120
        # The mid-soak poisoned delta was pushed, and its digest was
        # never observed serving: the gate is what protected v2.0.
        kinds = [d["kind"] for d in report.deltas]
        assert "buggy" in kinds
        assert report.invariants["held_never_served"]
        # The ledger balanced under injected drops and malformed floods.
        assert report.metrics["conservation"]["conserved"]
        # The report survives the status/CI serialization path.
        round_tripped = json.loads(json.dumps(report.to_json()))
        assert round_tripped["clean"] is True
        assert round_tripped["seed"] == 7


class TestCli:
    def test_chaosdrill_requires_serve_flag(self, capsys):
        # Without --serve the command points at faultdrill and refuses:
        # a chaos soak is never an accidental side effect.
        assert cli.main(["chaosdrill"]) == 2
        assert "faultdrill" in capsys.readouterr().err
