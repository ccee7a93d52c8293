"""Stable content digests for the incremental-verification subsystem.

Incremental reuse is only sound when "nothing relevant changed" can be
decided exactly, so every cacheable artifact is addressed by a digest of
the content it was computed from:

- **engine-version IR** — the GoPy *source* of the version module, the
  shared library layers it links against, and the top-level specification
  (the exact module set :func:`repro.core.pipeline.compile_engine_modules`
  feeds the compiler);
- **layer configs** — the interface-configuration artifact
  (:mod:`repro.core.layers`), whose source is the paper's Table-3 unit of
  porting cost;
- **zone content** — record multisets and whole zones, as text: the
  publish journal's zone identity and the equivalence-class planner's
  slice digests. The by-label dependency closure is digested as the engine
  sees the records instead (:mod:`repro.incremental.delta`).

Digests are hex SHA-256 over canonical text, so they are stable across
processes, platforms and Python versions.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from typing import Iterable, List, Optional

from repro.dns.name import DnsName
from repro.dns.records import ResourceRecord
from repro.dns.zone import Zone


def digest_text(*parts: str) -> str:
    """SHA-256 over the given text parts (NUL-separated, UTF-8)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def digest_json(value) -> str:
    """SHA-256 over the canonical JSON form of ``value``."""
    return digest_text(json.dumps(value, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Code digests
# ---------------------------------------------------------------------------


def source_digest(py_module) -> str:
    """Digest of a Python module's *current* source text.

    Reads the file behind the module when one exists (so the paper's
    porting workflow — edit ``engine.versions.dev``, re-verify in the same
    process — observes the edit), falling back to :func:`inspect.getsource`
    for file-less modules.
    """
    path = getattr(py_module, "__file__", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return digest_text(handle.read())
        except OSError:
            pass
    try:
        return digest_text(inspect.getsource(py_module))
    except (OSError, TypeError):
        # Synthetic modules (e.g. built in tests): digest the names of the
        # callables and structs they expose, the best stable proxy we have.
        names = sorted(k for k in vars(py_module) if not k.startswith("__"))
        return digest_json({"module": getattr(py_module, "__name__", "?"), "names": names})


def engine_digest(version: str) -> str:
    """Digest of everything that determines one engine version's IR: the
    version module, the shared library layers, and the top-level spec."""
    from repro.engine import control
    from repro.engine.gopy import nameops, nodestack, respops
    from repro.spec import toplevel

    version_module = control.ENGINE_VERSIONS[version]
    return digest_text(
        version,
        source_digest(nameops),
        source_digest(nodestack),
        source_digest(respops),
        source_digest(version_module),
        source_digest(toplevel),
    )


def layers_digest() -> str:
    """Digest of the interface configuration (the layer table source)."""
    from repro.core import layers

    return source_digest(layers)


# ---------------------------------------------------------------------------
# Zone digests
# ---------------------------------------------------------------------------


def records_digest(records: Iterable[ResourceRecord]) -> str:
    """Order-insensitive digest of a record multiset."""
    return digest_text(*sorted(rec.to_text() for rec in records))


def zone_digest(zone: Zone) -> str:
    """Digest of a whole zone: origin plus its record multiset."""
    return digest_text(zone.origin.to_text(), records_digest(zone.records))


def top_label_of(zone: Zone, name: DnsName) -> Optional[str]:
    """The first label below the apex on the path to ``name`` (the subtree
    the name belongs to), or None when ``name`` is the apex itself or lies
    outside the zone."""
    if not name.is_proper_subdomain_of(zone.origin):
        return None
    return name.relativize(zone.origin)[-1]


def subtree_records(zone: Zone, top_label: str) -> List[ResourceRecord]:
    """All records in the subtree rooted at ``<top_label>.<origin>``
    (including the subtree root itself)."""
    root = zone.origin.prepend(top_label)
    return [rec for rec in zone.records if rec.rname.is_subdomain_of(root)]


def apex_records(zone: Zone) -> List[ResourceRecord]:
    """Records whose owner is the zone apex."""
    return [rec for rec in zone.records if rec.rname == zone.origin]


def top_labels(zone: Zone) -> List[str]:
    """Sorted first-below-apex labels that exist in the zone (every owner
    name contributes the subtree it lives in). The apex wildcard label
    ``*`` is included when present — callers that partition the query
    space treat it separately, since queries cannot spell ``*`` as an
    ordinary label match."""
    tops = set()
    for rec in zone.records:
        top = top_label_of(zone, rec.rname)
        if top is not None:
            tops.add(top)
    return sorted(tops)
