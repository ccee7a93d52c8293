"""Append-only JSON-lines files: one crash-safe append, one tolerant reader.

Every durable line log in the repo goes through this module — the
campaign checkpoint, the campaign service's event stream and verdict
ledger, and the serve publish journal — so they all follow one crash
rule:

- :func:`append` writes one canonical line (sorted keys, no spaces),
  flushes and fsyncs it; the record is durable once the call returns.
  A crash mid-append leaves a *torn tail*: a last line without its
  newline. The next append first seals that tail onto its own line, so
  the new record is never glued to the garbage and lost with it.
- :func:`read` returns every decodable record and the number of lines it
  skipped, so a torn tail (or bit rot) costs only the damaged record.
- :func:`write_atomic` replaces a whole file (temp file, fsync,
  ``os.replace``); logs use it only to start a file with its header and
  to compact one on resume, never per record.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.resilience import faults


def encode(record: Dict) -> str:
    """The one line encoding every log shares."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _tail_is_torn(handle) -> bool:
    if handle.seek(0, os.SEEK_END) == 0:
        return False
    handle.seek(-1, os.SEEK_END)
    return handle.read(1) != b"\n"


def append(path, record: Dict, fault_site: Optional[str] = None) -> None:
    """Durably append ``record`` as one line; raises ``OSError`` on failure.

    ``fault_site`` names the fault-injection site that simulates the worst
    crash shape: half the line reaches the disk, then the write dies with
    the ``OSError`` the real failure would raise.
    """
    line = encode(record).encode("utf-8")
    with open(path, "a+b") as handle:
        if _tail_is_torn(handle):
            handle.write(b"\n")
        if fault_site is not None and faults.should_fire(fault_site):
            handle.write(line[: max(1, len(line) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
            raise OSError(f"injected fault at site {fault_site!r}")
        handle.write(line + b"\n")
        handle.flush()
        os.fsync(handle.fileno())


def read(path) -> Tuple[List[Dict], int]:
    """``(records, skipped)``: every line that decodes to a JSON object, in
    file order, and how many non-blank lines did not. A missing file reads
    as empty."""
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
    except FileNotFoundError:
        return [], 0
    records: List[Dict] = []
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            skipped += 1
    return records, skipped


def write_atomic(path, records: Iterable[Dict]) -> None:
    """Replace ``path`` with exactly ``records``, all or nothing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = "".join(encode(record) + "\n" for record in records)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".jsonl.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
