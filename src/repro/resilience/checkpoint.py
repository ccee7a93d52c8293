"""Crash-safe JSONL checkpoints for long-running campaigns.

A checkpoint is an append-only JSON-lines file: one header line pinning
what the campaign is (engine digest, zone digests, knobs — the same
digest-pinning discipline as the incremental cache keys), then one line
per completed unit. The header is published atomically when the file is
created; each unit is then one fsync'd :func:`repro.resilience.jsonl.append`,
so a SIGKILL mid-record can tear at most the last line.

``load`` is deliberately tolerant: lines that fail to decode (a torn
final append, manual edits) are skipped and counted, so a damaged
checkpoint degrades to re-running the damaged units rather than refusing
to resume. Resuming compacts the file — header plus surviving units,
rewritten atomically — which drops the damaged lines for good.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.resilience import jsonl

#: Bump when the line layout changes; mismatched files refuse to resume.
CHECKPOINT_FORMAT = 1


class CheckpointError(RuntimeError):
    """The checkpoint exists but describes a different campaign."""


def unit_address(unit_key: Dict) -> str:
    """Canonical string identity of a unit key (dict-safe map key)."""
    return jsonl.encode(unit_key)


def load(path) -> Tuple[Optional[Dict], Dict[str, Dict], int]:
    """Read a checkpoint: ``(header, {unit_address: payload}, corrupt_lines)``.

    A missing file is an empty checkpoint, not an error.
    """
    records, corrupt = jsonl.read(path)
    header: Optional[Dict] = None
    units: Dict[str, Dict] = {}
    for record in records:
        if "header" in record:
            header = record["header"]
        elif "unit" in record and "payload" in record:
            units[unit_address(record["unit"])] = record["payload"]
        else:
            corrupt += 1
    return header, units, corrupt


class CheckpointWriter:
    """Append units to a checkpoint, one fsync'd line each."""

    def __init__(self, path, header: Dict,
                 _units: Optional[Dict[str, Dict]] = None):
        self.path = Path(path)
        self.header = dict(header, format=CHECKPOINT_FORMAT)
        records = [{"header": self.header}]
        for address, payload in (_units or {}).items():
            records.append({"unit": json.loads(address), "payload": payload})
        jsonl.write_atomic(self.path, records)

    @classmethod
    def open(cls, path, header: Dict,
             resume: bool = False) -> Tuple["CheckpointWriter", Dict[str, Dict]]:
        """Create (or resume) a checkpoint for ``header``.

        Returns the writer plus the already-completed units. Without
        ``resume`` any existing file is discarded. With it, a file whose
        header disagrees (different campaign) raises
        :class:`CheckpointError` instead of silently mixing runs.
        """
        if not resume:
            return cls(path, header), {}
        existing_header, units, _corrupt = load(path)
        if existing_header is None:
            return cls(path, header), {}
        if existing_header != dict(header, format=CHECKPOINT_FORMAT):
            raise CheckpointError(
                f"checkpoint {path} was written by a different campaign "
                f"(header mismatch); delete it or drop --resume"
            )
        return cls(path, header, _units=units), units

    def append(self, unit_key: Dict, payload: Dict) -> None:
        jsonl.append(self.path, {"unit": unit_key, "payload": payload})
