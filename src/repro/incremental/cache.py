"""Persistent content-addressed cache for verification artifacts.

Entries are JSON documents addressed by the SHA-256 of their *key
material* — a canonical-JSON description of everything the cached value
was computed from (engine digest, zone/closure digests, encoding depth,
format version). Matching key material therefore guarantees the stored
value is still valid; there is no time-based expiry.

Layout on disk (default ``~/.cache/repro``, overridable by constructor
argument or the ``REPRO_CACHE_DIR`` environment variable)::

    <cache_dir>/<kind>/<sha256>.json

where ``kind`` namespaces artifact types (the verifier stores one,
``partition``: per-unit verdicts, the unsplit ``full`` unit included).
Each file holds ``{"key": <material>, "value": <payload>}``
so entries are self-describing and collisions (different material, same
digest — astronomically unlikely) are detected on read.

A small in-memory layer fronts the disk store; eviction is LRU by file
mtime when ``max_entries`` is exceeded. Counters (hits/misses/puts/
evictions) feed the ``--json`` CLI output and the watch daemon's
per-update log lines.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.incremental.digest import digest_text
from repro.resilience import faults

#: Bump when any serialized payload layout changes; keyed into every entry.
CACHE_FORMAT = 2

_ENV_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _canonical(material) -> str:
    return json.dumps(material, sort_keys=True, separators=(",", ":"))


class SummaryCache:
    """Content-addressed JSON store (see module docstring).

    ``memory_only=True`` keeps everything in RAM — used by sessions that
    want intra-process reuse without touching the filesystem.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        max_entries: int = 4096,
        memory_only: bool = False,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.max_entries = max_entries
        self.memory_only = memory_only
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.corrupt = 0
        self.io_errors = 0
        self._memory: Dict[Tuple[str, str], object] = {}

    # -- keys ----------------------------------------------------------------

    def address(self, kind: str, key_material) -> str:
        """The content address of an entry: SHA-256 over kind, format
        version and canonical key material."""
        return digest_text(kind, str(CACHE_FORMAT), _canonical(key_material))

    def _path(self, kind: str, address: str) -> Path:
        return self.cache_dir / kind / f"{address}.json"

    # -- store ---------------------------------------------------------------

    def get(self, kind: str, key_material):
        """The cached payload for ``key_material``, or None on miss."""
        address = self.address(kind, key_material)
        mem_key = (kind, address)
        if mem_key in self._memory:
            self.hits += 1
            return self._memory[mem_key]
        if not self.memory_only:
            path = self._path(kind, address)
            entry = None
            try:
                faults.maybe_raise(faults.SITE_CACHE_READ)
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
                if faults.should_fire(faults.SITE_CACHE_CORRUPT):
                    # Simulated torn write: truncating drives the genuine
                    # decode-error handling below, not a shortcut.
                    text = text[: max(1, len(text) // 2)]
                entry = json.loads(text)
            except FileNotFoundError:
                pass
            except OSError:
                # Transient or permission IO: a miss, counted; the caller
                # recomputes and (maybe) republishes.
                self.io_errors += 1
            except json.JSONDecodeError:
                self._evict_corrupt(path)
            if entry is not None and not isinstance(entry, dict):
                # Parsed but not an entry object — also corruption.
                self._evict_corrupt(path)
                entry = None
            if entry is not None and entry.get("key") == json.loads(
                _canonical(key_material)
            ):
                value = entry.get("value")
                self._memory[mem_key] = value
                self.hits += 1
                try:  # refresh mtime so LRU eviction sees the use
                    os.utime(path)
                except OSError:
                    pass
                return value
        self.misses += 1
        return None

    def _evict_corrupt(self, path: Path) -> None:
        """A corrupted/truncated entry is a miss: count it and remove the
        file so the next put republishes a clean copy."""
        self.corrupt += 1
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, kind: str, key_material, payload) -> str:
        """Store ``payload`` (JSON-serializable) under its content address;
        returns the address."""
        address = self.address(kind, key_material)
        self._memory[(kind, address)] = payload
        self.puts += 1
        if self.memory_only:
            return address
        path = self._path(kind, address)
        try:
            faults.maybe_raise(faults.SITE_CACHE_WRITE)
            path.parent.mkdir(parents=True, exist_ok=True)
            entry = {"key": json.loads(_canonical(key_material)), "value": payload}
            # Atomic publish: readers never observe a half-written entry.
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            self._evict(path.parent)
        except OSError:
            self.io_errors += 1  # a read-only cache dir degrades to memory-only
        return address

    def _evict(self, kind_dir: Path) -> None:
        # Concurrent writers (parallel workers share one cache directory)
        # may publish or evict between our glob and each stat/unlink, so
        # every per-file operation tolerates the file vanishing.
        stamped = []
        try:
            entries = list(kind_dir.glob("*.json"))
        except OSError:
            return
        for path in entries:
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:
                continue  # evicted by a sibling; already gone
        stamped.sort(key=lambda pair: pair[0])
        excess = len(stamped) - self.max_entries
        for _, victim in stamped[:max(0, excess)]:
            try:
                victim.unlink()
                self.evictions += 1
            except FileNotFoundError:
                continue  # a sibling won the race; the entry is gone either way
            except OSError:
                break

    # -- stats ---------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "io_errors": self.io_errors,
        }

    def reset_stats(self) -> None:
        self.hits = self.misses = self.puts = self.evictions = 0
        self.corrupt = self.io_errors = 0

    def __repr__(self) -> str:
        where = "memory" if self.memory_only else str(self.cache_dir)
        return (
            f"SummaryCache({where}, hits={self.hits}, misses={self.misses}, "
            f"puts={self.puts}, evictions={self.evictions})"
        )
