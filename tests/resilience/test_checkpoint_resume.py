"""Crash-safe checkpoints: durable appends, tolerant loads, bit-identical
resume. The SIGKILL-then-resume subprocess test lives with the worker-count
identity tests in ``tests/parallel/test_campaign_parallel.py``."""

import os

import pytest

from repro.core import run_campaign
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    load,
    unit_address,
)


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = CheckpointWriter(path, {"kind": "campaign", "id": "x"})
        writer.append({"index": 0}, {"verdict": "VERIFIED"})
        writer.append({"index": 1}, {"verdict": "BUG"})
        header, units, corrupt = load(path)
        assert header["kind"] == "campaign"
        assert corrupt == 0
        assert units[unit_address({"index": 0})] == {"verdict": "VERIFIED"}
        assert units[unit_address({"index": 1})] == {"verdict": "BUG"}

    def test_append_keeps_earlier_bytes_and_inode(self, tmp_path):
        # An append adds one line in place; it never republishes the file.
        path = tmp_path / "run.jsonl"
        writer = CheckpointWriter(path, {"id": "x"})
        writer.append({"index": 0}, {"verdict": "VERIFIED"})
        before = path.read_bytes()
        inode = os.stat(path).st_ino
        writer.append({"index": 1}, {"verdict": "BUG"})
        after = path.read_bytes()
        assert after.startswith(before)
        assert after.count(b"\n") == before.count(b"\n") + 1
        assert os.stat(path).st_ino == inode

    def test_missing_file_is_empty(self, tmp_path):
        assert load(tmp_path / "absent.jsonl") == (None, {}, 0)

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = CheckpointWriter(path, {"id": "x"})
        writer.append({"index": 0}, {"verdict": "VERIFIED"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"unit": {"index": 1}, "payl')  # torn write
        header, units, corrupt = load(path)
        assert header is not None
        assert len(units) == 1
        assert corrupt == 1

    def test_resume_header_mismatch_refuses(self, tmp_path):
        path = tmp_path / "run.jsonl"
        CheckpointWriter(path, {"id": "campaign-a"})
        with pytest.raises(CheckpointError):
            CheckpointWriter.open(path, {"id": "campaign-b"}, resume=True)

    def test_resume_replays_units(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = CheckpointWriter(path, {"id": "x"})
        writer.append({"index": 0}, {"verdict": "VERIFIED"})
        resumed, units = CheckpointWriter.open(path, {"id": "x"}, resume=True)
        assert units == {unit_address({"index": 0}): {"verdict": "VERIFIED"}}
        resumed.append({"index": 1}, {"verdict": "BUG"})
        _, units, _ = load(path)
        assert len(units) == 2

    def test_without_resume_discards_existing(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = CheckpointWriter(path, {"id": "x"})
        writer.append({"index": 0}, {"verdict": "VERIFIED"})
        _, units = CheckpointWriter.open(path, {"id": "x"}, resume=False)
        assert units == {}
        _, on_disk, _ = load(path)
        assert on_disk == {}


class TestCampaignResume:
    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        """Simulated crash: truncate the checkpoint to header + first unit
        + a torn line, resume, and demand the same canonical report."""
        ckpt = tmp_path / "campaign.jsonl"
        baseline = run_campaign("verified", num_zones=3, seed=11,
                                checkpoint=str(ckpt))
        lines = ckpt.read_text().splitlines()
        assert len(lines) == 4  # header + 3 units
        ckpt.write_text("\n".join(lines[:2]) + '\n{"unit": {"ind\n')
        resumed = run_campaign("verified", num_zones=3, seed=11,
                               checkpoint=str(ckpt), resume=True)
        assert resumed.canonical_json() == baseline.canonical_json()

    def test_resume_skips_completed_units(self, tmp_path):
        ckpt = tmp_path / "campaign.jsonl"
        run_campaign("verified", num_zones=2, seed=11, checkpoint=str(ckpt))
        resumed = run_campaign("verified", num_zones=2, seed=11,
                               checkpoint=str(ckpt), resume=True)
        # Everything replayed from the checkpoint; no unit re-ran.
        assert resumed.perf["units_replayed"] == 2
        assert resumed.perf["units_completed"] == 0
