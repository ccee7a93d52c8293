"""JSON round-trips for bug reports and verification results.

A :class:`~repro.core.pipeline.BugReport` holds only plain data (a
decoded query, label codes, descriptions), so its JSON form is exact.
That is what lets the verdict cache store partition verdicts (see
:func:`repro.incremental.engine.verdict_of`) and a pool worker ship one
to its parent. :func:`result_to_json` is the ``--json`` CLI contract.

Decoding malformed input raises ``KeyError``, ``TypeError`` or
``ValueError``; callers treat that as a cache miss, never an error.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.pipeline import BugReport, LayerResult, VerificationResult
from repro.dns.message import Query
from repro.dns.name import DnsName
from repro.dns.rtypes import RRType


# ---------------------------------------------------------------------------
# Bug reports and verification results (CLI --json, partition verdicts)
# ---------------------------------------------------------------------------


def bug_to_json(bug: BugReport) -> Dict:
    return {
        "version": bug.version,
        "categories": list(bug.categories),
        "query": (
            None
            if bug.query is None
            else {"qname": list(bug.query.qname.labels), "qtype": int(bug.query.qtype)}
        ),
        "qname_codes": list(bug.qname_codes),
        "qtype_code": bug.qtype_code,
        "description": bug.description,
        "validated": bug.validated,
        "engine_summary": bug.engine_summary,
        "expected_summary": bug.expected_summary,
    }


def bug_from_json(data: Dict) -> BugReport:
    query: Optional[Query] = None
    if data["query"] is not None:
        query = Query(
            DnsName(tuple(data["query"]["qname"])), RRType(data["query"]["qtype"])
        )
    return BugReport(
        data["version"],
        tuple(data["categories"]),
        query,
        tuple(data["qname_codes"]),
        data["qtype_code"],
        data["description"],
        data["validated"],
        data["engine_summary"],
        data["expected_summary"],
    )


def result_to_json(result: VerificationResult, cache_stats: Optional[Dict] = None,
                   reuse: Optional[Dict] = None) -> Dict:
    """Machine-readable form of a verification outcome (the ``--json`` CLI
    contract; the watch daemon logs a subset of this)."""
    payload = {
        "version": result.version,
        "zone_origin": result.zone_origin,
        "verified": result.verified,
        "bugs": [bug_to_json(b) for b in result.bugs],
        "bug_categories": result.bug_categories(),
        "layers": [
            {
                "name": layer.name,
                "route": layer.route,
                "elapsed_seconds": layer.elapsed_seconds,
                "paths": layer.paths,
                "cases": layer.cases,
                "verified": layer.verified,
            }
            for layer in result.layers
        ],
        "elapsed_seconds": result.elapsed_seconds,
        "solver_checks": result.solver_checks,
        "spurious_mismatches": result.spurious_mismatches,
        "verdict": result.verdict,
        "unknown_reason": result.unknown_reason,
        "error_class": result.error_class,
        "error_detail": result.error_detail,
        "partial": None if result.partial is None else dict(result.partial),
        "phase_seconds": dict(result.phase_seconds),
        "analysis": None if result.analysis is None else dict(result.analysis),
    }
    if cache_stats is not None:
        payload["cache"] = dict(cache_stats)
    if reuse is not None:
        payload["reuse"] = dict(reuse)
    return payload


def result_from_json(data: Dict) -> VerificationResult:
    result = VerificationResult(
        version=data["version"],
        zone_origin=data["zone_origin"],
        verified=data["verified"],
        bugs=[bug_from_json(b) for b in data["bugs"]],
        layers=[
            LayerResult(
                layer["name"], layer["route"], layer["elapsed_seconds"],
                layer["paths"], layer["cases"], layer["verified"],
            )
            for layer in data["layers"]
        ],
        refinement=None,
        elapsed_seconds=data["elapsed_seconds"],
        solver_checks=data["solver_checks"],
        spurious_mismatches=data["spurious_mismatches"],
    )
    # Verdict fields postdate the original format; their absence means a
    # pre-taxonomy artifact whose verdict is implied by ``verified``.
    result.verdict = data.get(
        "verdict", "VERIFIED" if result.verified else "BUG"
    )
    result.unknown_reason = data.get("unknown_reason")
    result.error_class = data.get("error_class")
    result.error_detail = data.get("error_detail", "")
    partial = data.get("partial")
    result.partial = dict(partial) if partial is not None else None
    result.phase_seconds = dict(data.get("phase_seconds") or {})
    analysis = data.get("analysis")
    result.analysis = dict(analysis) if analysis is not None else None
    return result
