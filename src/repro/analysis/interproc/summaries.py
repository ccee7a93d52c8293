"""Bottom-up function summaries over the guard domain.

A :class:`FunctionSummary` is everything the caller-side analysis may
soundly assume about a call without looking inside it:

``pure``
    The callee never appends to any list reachable from the caller
    (transitively — through other GoPy calls too). A pure call does not
    turn the caller's list epoch, so length facts survive it.

``ret_facts``
    For integer-returning functions: closed difference constraints
    ``u - v <= c`` over the tokens ``ret`` (the return value),
    ``len{i}`` (the entry length of the i-th argument, when it is a
    pointer), ``arg{i}`` (the i-th argument, when it is an integer) and
    ``""`` (the zero anchor). ``shared_prefix_len`` summarizes to
    ``ret >= 0``, ``ret <= len0``, ``ret <= len1`` — exactly the facts
    that discharge ``rr.rname[ce]`` guards in callers.

``true_facts`` / ``false_facts``
    For boolean-returning functions: the same constraint language,
    valid on the call sites' True/False branch respectively. These are
    the label-relation tokens of the interprocedural domain:
    ``is_prefix(a, b) == True`` implies ``len(a) <= len(b)``,
    ``name_equal(a, b) == True`` implies ``len(a) == len(b)``.

``may_true`` / ``may_false``
    Whether any abstractly-reachable return site can produce that
    constant; a boolean callee with ``may_false == False`` folds to
    True at every call site.

Summaries for recursive components are *havocked* — purity is still
computed (it is a simple syntactic fixpoint) but no return facts are
claimed. Extraction runs the same :class:`GuardDomain` the pruning pass
uses, with the already-computed callee summaries plugged in, so facts
accumulate bottom-up across the whole module set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import DataflowResult, analyze
from repro.analysis.interproc.callgraph import CallGraph
from repro.ir import PointerType, Ret
from repro.ir.function import Function
from repro.ir.types import BoolType, IntType

#: Bump when the summary language or its call-site interpretation
#: changes; rides every cache key through ``summaries_digest``.
SUMMARY_SCHEMA_VERSION = 1

#: A difference constraint over summary tokens: ``u - v <= c``.
FactTuple = Tuple[str, str, int]


@dataclass(frozen=True)
class FunctionSummary:
    """What a call site may assume about ``function`` (see module doc)."""

    function: str
    pure: bool = False
    ret_kind: str = "none"  # "int" | "bool" | "none" | "other"
    ret_facts: Tuple[FactTuple, ...] = ()
    true_facts: Tuple[FactTuple, ...] = ()
    false_facts: Tuple[FactTuple, ...] = ()
    may_true: bool = True
    may_false: bool = True
    #: True when recursion or a fixpoint bail-out suppressed extraction.
    havocked: bool = False

    def describe(self) -> str:
        bits = [("pure" if self.pure else "impure"), self.ret_kind]
        if self.havocked:
            bits.append("havocked")
        if self.ret_facts:
            bits.append(f"{len(self.ret_facts)} ret facts")
        if self.true_facts or self.false_facts:
            bits.append(
                f"{len(self.true_facts)}T/{len(self.false_facts)}F facts"
            )
        return f"{self.function}: " + ", ".join(bits)


class SummaryTable(dict):
    """``{name: FunctionSummary}``, plus the fixpoints behind it.

    :func:`compute_summaries` analyses each non-recursive function once,
    under this very table (which then holds exactly its callees'
    summaries) and the given widening settings. It keeps that
    :class:`~repro.analysis.dataflow.DataflowResult` so the pruning pass
    (:func:`repro.analysis.prune.prune_function`) can use it instead of
    recomputing the same fixpoint. A kept fixpoint is handed out once:
    pruning rewrites the function it describes.
    """

    def __init__(self, widen_after: int, max_visits: int):
        super().__init__()
        self.widen_after = widen_after
        self.max_visits = max_visits
        self._fixpoints: Dict[str, DataflowResult] = {}

    def take_fixpoint(self, function: Function, widen_after: int,
                      max_visits: int) -> Optional[DataflowResult]:
        """The fixpoint of ``function`` (this very object) computed under
        this table with the same settings, or None."""
        if (widen_after, max_visits) != (self.widen_after, self.max_visits):
            return None
        result = self._fixpoints.get(function.name)
        if result is None or result.function is not function:
            return None
        del self._fixpoints[function.name]
        return result


def compute_summaries(
    modules: Sequence[object],
    widen_after: int = 8,
    max_visits: int = 500,
) -> SummaryTable:
    """Summaries for every function defined in ``modules``, bottom-up."""
    graph = CallGraph(modules)
    pure = _purity_fixpoint(graph)
    summaries = SummaryTable(widen_after, max_visits)
    for component in graph.sccs_bottom_up():
        if graph.is_recursive(component):
            for name in component:
                summaries[name] = _havoc(graph.functions[name], pure[name])
            continue
        (name,) = component
        summaries[name] = _summarize_function(
            graph.functions[name], summaries, pure[name]
        )
    return summaries


def summaries_digest(summaries: Dict[str, FunctionSummary]) -> str:
    """A stable digest of the whole summary table (cache keys, telemetry).

    Covers the schema version, so changing how summaries are interpreted
    invalidates every cached artifact built on the old meaning.
    """
    h = hashlib.sha256()
    h.update(f"summary-schema:{SUMMARY_SCHEMA_VERSION}".encode())
    for name in sorted(summaries):
        h.update(repr(summaries[name]).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Purity
# ---------------------------------------------------------------------------


def _purity_fixpoint(graph: CallGraph) -> Dict[str, bool]:
    """Append-purity: False iff the function may append to a list the
    caller can reach — a direct ``list.append``, an unknown callee
    (worst case), or any impure GoPy callee."""
    pure = {name: True for name in graph.functions}
    for name in graph.functions:
        if "list.append" in graph.primitive_calls[name] or \
                graph.unknown_calls[name]:
            pure[name] = False
    changed = True
    while changed:
        changed = False
        for name, callees in graph.edges.items():
            if pure[name] and any(not pure[c] for c in callees):
                pure[name] = False
                changed = True
    return pure


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _havoc(function: Function, pure: bool) -> FunctionSummary:
    return FunctionSummary(
        function.name, pure=pure, ret_kind=_ret_kind(function), havocked=True
    )


def _ret_kind(function: Function) -> str:
    rt = function.return_type
    if rt is None:
        return "none"
    if isinstance(rt, IntType):
        return "int"
    if isinstance(rt, BoolType):
        return "bool"
    return "other"


def _token_map(function: Function) -> Dict[str, Tuple[str, int]]:
    """Summary token -> (domain variable, offset) inside the callee."""
    from repro.analysis.domains import ZERO

    tokens: Dict[str, Tuple[str, int]] = {"": (ZERO, 0)}
    for i, (pname, ty) in enumerate(function.params):
        if isinstance(ty, IntType):
            tokens[f"arg{i}"] = (f"P!{pname}", 0)
        elif isinstance(ty, PointerType):
            # The entry-epoch length variable list.len mints for the
            # parameter; valid as "length at entry" regardless of later
            # epoch turns, because epoch turns rename rather than reuse.
            tokens[f"len{i}"] = (f"L!P!{pname}!init", 0)
    return tokens


def _project_facts(
    state,
    tokens: Dict[str, Tuple[str, int]],
) -> Dict[Tuple[str, str], int]:
    """The tightest ``u - v <= c`` over every ordered token pair."""
    out: Dict[Tuple[str, str], int] = {}
    for tu, (u_var, u_off) in tokens.items():
        for tv, (v_var, v_off) in tokens.items():
            if tu == tv:
                continue
            bound = state.facts.bound(u_var, v_var)
            if bound is not None:
                out[(tu, tv)] = bound + u_off - v_off
    return out


def _join_fact_maps(
    acc: Optional[Dict[Tuple[str, str], int]],
    new: Dict[Tuple[str, str], int],
) -> Dict[Tuple[str, str], int]:
    """Pointwise max over common keys (the sound join across ret sites)."""
    if acc is None:
        return dict(new)
    return {
        key: max(c, new[key])
        for key, c in acc.items()
        if key in new
    }


def _as_fact_tuple(facts: Optional[Dict[Tuple[str, str], int]],
                   ) -> Tuple[FactTuple, ...]:
    if not facts:
        return ()
    return tuple(sorted((u, v, c) for (u, v), c in facts.items()))


def _summarize_function(
    function: Function,
    summaries: SummaryTable,
    pure: bool,
) -> FunctionSummary:
    from repro.analysis.domains import Bool, GuardDomain

    ret_kind = _ret_kind(function)
    cfg = CFG(function)
    domain = GuardDomain(cfg, summaries=summaries)
    try:
        result = analyze(function, domain, cfg=cfg,
                         widen_after=summaries.widen_after,
                         max_visits=summaries.max_visits)
    except RuntimeError:
        return _havoc(function, pure)
    summaries._fixpoints[function.name] = result

    tokens = _token_map(function)
    ret_acc: Optional[Dict[Tuple[str, str], int]] = None
    true_acc: Optional[Dict[Tuple[str, str], int]] = None
    false_acc: Optional[Dict[Tuple[str, str], int]] = None
    may_true = False
    may_false = False

    for label, block in function.blocks.items():
        term = block.terminator
        if not isinstance(term, Ret):
            continue
        state = result.state_at_terminator(label)
        if state is None:
            continue  # abstractly unreachable: contributes nothing
        value = domain._eval(state, term.value) if term.value is not None \
            else None
        if ret_kind == "int":
            num = domain._as_num(value)
            site_tokens = dict(tokens)
            if num is not None:
                site_tokens["ret"] = (num.var, num.off)
            ret_acc = _join_fact_maps(
                ret_acc, _project_facts(state, site_tokens)
            )
        elif ret_kind == "bool":
            site_facts = _project_facts(state, tokens)
            if isinstance(value, Bool) and value.val is True:
                may_true = True
                true_acc = _join_fact_maps(true_acc, site_facts)
            elif isinstance(value, Bool) and value.val is False:
                may_false = True
                false_acc = _join_fact_maps(false_acc, site_facts)
            else:
                # Symbolic result: this site may produce either value.
                may_true = may_false = True
                true_acc = _join_fact_maps(true_acc, site_facts)
                false_acc = _join_fact_maps(false_acc, site_facts)

    if ret_kind != "bool":
        may_true = may_false = True
    elif not may_true and not may_false:
        # No reachable return site at all (infinite loop / all-panic):
        # claim nothing.
        may_true = may_false = True
    return FunctionSummary(
        function.name,
        pure=pure,
        ret_kind=ret_kind,
        ret_facts=_as_fact_tuple(ret_acc),
        true_facts=_as_fact_tuple(true_acc),
        false_facts=_as_fact_tuple(false_acc),
        may_true=may_true,
        may_false=may_false,
    )
