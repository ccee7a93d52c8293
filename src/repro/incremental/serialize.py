"""JSON round-trips for verification artifacts.

Summaries, refinement reports and bug reports are in-memory objects built
from solver terms, heap pointers and effect records; this module gives each
a canonical JSON form so the content-addressed cache can persist them.

Portability contract (what makes reloading sound):

- solver **terms** serialize by structure (variable names, coefficients,
  atom kinds) and rebuild exactly, through the hash-consing constructors,
  so a loaded term *is* the live term of that structure;
- **pointers** serialize as ``(block_id, path)``. Heap construction is
  deterministic, so block ids are portable between two sessions built from
  the *same zone content* — which is precisely what the cache keys
  guarantee (summaries and refinement reports are keyed by exact zone
  digest; partition verdicts additionally pin the label universe);
- **summaries** store their cases and parameter symbols but *not* their
  parameter specs: specs hold session-local heap pointers, so the loader
  takes them from the current session's layer configuration;
- **mismatches** are trimmed to ``(kind, observation, model values)`` —
  exactly what counterexample decoding consumes — and replayed through the
  normal decode/validate path on load.

Anything outside the known vocabulary raises :class:`SerializationError`;
callers treat that as a cache miss, never an error.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.pipeline import BugReport, LayerResult, VerificationResult
from repro.dns.message import Query
from repro.dns.name import DnsName
from repro.dns.rtypes import RRType
from repro.refine.checker import Mismatch, RefinementReport
from repro.solver.solver import Model
from repro.solver.terms import (
    And,
    Atom,
    BoolConst,
    BoolExpr,
    BoolLit,
    IntExpr,
    Or,
    bool_const,
)
from repro.summary.effects import Effect, FieldWrite, ListAppend, NewObject, NewTag
from repro.summary.summarize import Summary, SummaryCase, _ResultParamInfo
from repro.symex.executor import PanicInfo
from repro.symex.values import UNINIT, Pointer


class SerializationError(ValueError):
    """The artifact uses a vocabulary this format does not cover."""


# ---------------------------------------------------------------------------
# Solver terms
# ---------------------------------------------------------------------------


def term_to_json(term) -> Dict:
    if isinstance(term, IntExpr):
        return {"t": "int", "coeffs": [list(c) for c in term.coeffs], "const": term.const}
    if isinstance(term, BoolConst):
        return {"t": "bconst", "value": term.value}
    if isinstance(term, BoolLit):
        return {"t": "blit", "name": term.name, "positive": term.positive}
    if isinstance(term, Atom):
        return {"t": "atom", "kind": term.kind, "expr": term_to_json(term.expr)}
    if isinstance(term, (And, Or)):
        tag = "and" if isinstance(term, And) else "or"
        return {"t": tag, "args": [term_to_json(a) for a in term.args]}
    raise SerializationError(f"unsupported term {term!r}")


def term_from_json(data: Dict):
    tag = data["t"]
    if tag == "int":
        return IntExpr(tuple((name, coeff) for name, coeff in data["coeffs"]), data["const"])
    if tag == "bconst":
        return bool_const(data["value"])
    if tag == "blit":
        return BoolLit(data["name"], data["positive"])
    if tag == "atom":
        return Atom(data["kind"], term_from_json(data["expr"]))
    if tag == "and":
        return And(tuple(term_from_json(a) for a in data["args"]))
    if tag == "or":
        return Or(tuple(term_from_json(a) for a in data["args"]))
    raise SerializationError(f"unknown term tag {tag!r}")


# ---------------------------------------------------------------------------
# Effect values (terms, pointers, allocation tags, scalars)
# ---------------------------------------------------------------------------


def value_to_json(value) -> Dict:
    if value is None:
        return {"t": "none"}
    if value is UNINIT:
        return {"t": "uninit"}
    if isinstance(value, bool):
        return {"t": "bool", "value": value}
    if isinstance(value, int):
        return {"t": "scalar", "value": value}
    if isinstance(value, str):
        return {"t": "str", "value": value}
    if isinstance(value, NewTag):
        return {"t": "newtag", "index": value.index}
    if isinstance(value, Pointer):
        if any(not isinstance(p, int) for p in value.path):
            raise SerializationError(f"pointer with symbolic path {value!r}")
        return {"t": "ptr", "block": value.block_id, "path": list(value.path)}
    if isinstance(value, (IntExpr, BoolExpr)):
        return {"t": "term", "term": term_to_json(value)}
    if isinstance(value, tuple):
        return {"t": "tuple", "items": [value_to_json(v) for v in value]}
    raise SerializationError(f"unsupported effect value {value!r}")


def value_from_json(data: Dict):
    tag = data["t"]
    if tag == "none":
        return None
    if tag == "uninit":
        return UNINIT
    if tag == "bool":
        return data["value"]
    if tag == "scalar":
        return data["value"]
    if tag == "str":
        return data["value"]
    if tag == "newtag":
        return NewTag(data["index"])
    if tag == "ptr":
        return Pointer(data["block"], tuple(data["path"]))
    if tag == "term":
        return term_from_json(data["term"])
    if tag == "tuple":
        return tuple(value_from_json(v) for v in data["items"])
    raise SerializationError(f"unknown value tag {tag!r}")


def effect_to_json(effect: Effect) -> Dict:
    if isinstance(effect, FieldWrite):
        return {
            "t": "fieldwrite",
            "param": effect.param,
            "field_index": effect.field_index,
            "field_name": effect.field_name,
            "value": value_to_json(effect.value),
        }
    if isinstance(effect, ListAppend):
        return {
            "t": "listappend",
            "param": effect.param,
            "field_index": effect.field_index,
            "field_name": effect.field_name,
            "value": value_to_json(effect.value),
        }
    if isinstance(effect, NewObject):
        return {
            "t": "newobject",
            "tag": effect.tag.index,
            "struct": effect.struct_name,
            "fields": [value_to_json(v) for v in effect.field_values],
        }
    raise SerializationError(f"unsupported effect {effect!r}")


def effect_from_json(data: Dict) -> Effect:
    tag = data["t"]
    if tag == "fieldwrite":
        return FieldWrite(
            data["param"], data["field_index"], data["field_name"],
            value_from_json(data["value"]),
        )
    if tag == "listappend":
        return ListAppend(
            data["param"], data["field_index"], data["field_name"],
            value_from_json(data["value"]),
        )
    if tag == "newobject":
        return NewObject(
            NewTag(data["tag"]), data["struct"],
            tuple(value_from_json(v) for v in data["fields"]),
        )
    raise SerializationError(f"unknown effect tag {tag!r}")


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def _param_symbol_to_json(symbol) -> Dict:
    if symbol is None:
        return {"t": "none"}
    if isinstance(symbol, str):
        return {"t": "name", "name": symbol}
    if isinstance(symbol, _ResultParamInfo):
        return {
            "t": "result",
            "struct": symbol.struct_name,
            "block": symbol.block_id,
            "scalars": [list(f) for f in symbol.scalar_fields],
            "lists": [list(f) for f in symbol.list_fields],
            "fields": list(symbol.field_names),
        }
    raise SerializationError(f"unsupported param symbol {symbol!r}")


def _param_symbol_from_json(data: Dict):
    tag = data["t"]
    if tag == "none":
        return None
    if tag == "name":
        return data["name"]
    if tag == "result":
        return _ResultParamInfo(
            data["struct"],
            data["block"],
            [tuple(f) for f in data["scalars"]],
            [tuple(f) for f in data["lists"]],
            tuple(data["fields"]),
        )
    raise SerializationError(f"unknown param symbol tag {tag!r}")


def case_to_json(case: SummaryCase) -> Dict:
    return {
        "condition": term_to_json(case.condition),
        "effects": [effect_to_json(e) for e in case.effects],
        "ret": value_to_json(case.ret),
        "panic": (
            None
            if case.panic is None
            else {"kind": case.panic.kind, "message": case.panic.message,
                  "function": case.panic.function}
        ),
    }


def case_from_json(data: Dict) -> SummaryCase:
    panic = data["panic"]
    return SummaryCase(
        term_from_json(data["condition"]),
        tuple(effect_from_json(e) for e in data["effects"]),
        value_from_json(data["ret"]),
        None if panic is None else PanicInfo(panic["kind"], panic["message"], panic["function"]),
    )


def summary_to_json(summary: Summary) -> Dict:
    return {
        "name": summary.name,
        "param_symbols": [_param_symbol_to_json(s) for s in summary.param_symbols],
        "cases": [case_to_json(c) for c in summary.cases],
        "elapsed_seconds": summary.elapsed_seconds,
        "paths_explored": summary.paths_explored,
    }


def summary_from_json(data: Dict, param_specs) -> Summary:
    """Rebuild a summary; ``param_specs`` come from the *current* session's
    layer configuration (they carry session-local heap pointers)."""
    return Summary(
        data["name"],
        param_specs,
        [_param_symbol_from_json(s) for s in data["param_symbols"]],
        [case_from_json(c) for c in data["cases"]],
        data["elapsed_seconds"],
        data["paths_explored"],
    )


# ---------------------------------------------------------------------------
# Refinement reports (trimmed to what counterexample decoding consumes)
# ---------------------------------------------------------------------------


def report_to_json(report: RefinementReport) -> Dict:
    mismatches = []
    for mismatch in report.mismatches:
        mismatches.append(
            {
                "kind": mismatch.kind,
                "observation": mismatch.observation,
                "model": None if mismatch.model is None else mismatch.model.as_dict(),
            }
        )
    return {
        "code_name": report.code_name,
        "spec_name": report.spec_name,
        "verified": report.verified,
        "mismatches": mismatches,
        "code_paths": report.code_paths,
        "spec_paths": report.spec_paths,
        "pairs_checked": report.pairs_checked,
        "elapsed_seconds": report.elapsed_seconds,
        "unknowns": report.unknowns,
    }


def report_from_json(data: Dict) -> RefinementReport:
    mismatches = [
        Mismatch(
            m["kind"],
            None if m["model"] is None else Model(m["model"]),
            None,
            None,
            m["observation"],
        )
        for m in data["mismatches"]
    ]
    return RefinementReport(
        data["code_name"],
        data["spec_name"],
        data["verified"],
        mismatches,
        data["code_paths"],
        data["spec_paths"],
        data["pairs_checked"],
        data["elapsed_seconds"],
        data["unknowns"],
    )


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
