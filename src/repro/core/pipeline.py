"""The DNS-V verification pipeline (paper Figure 6).

``VerificationSession`` wires one (zone, engine version) pair into the
verifier: the control plane builds the concrete in-heap domain tree and the
flat specification zone, the symbolic query is installed, and the GoPy
modules are compiled to AbsLLVM. ``verify()`` then follows the layered
workflow:

1. summarize the evolving resolution layers bottom-up (each layer's summary
   is bound before the next layer is summarized, so Find is explored on top
   of TreeSearch's summary specification);
2. check ``resolve`` against the top-level specification ``rrlookup`` with
   the nested path-product refinement, which also discharges safety (a
   reachable panic is reported as a runtime-error bug);
3. decode every mismatch model into a concrete query, re-execute the
   engine and the specification *natively* (GoPy is Python), and keep only
   validated divergences as :class:`BugReport`\\ s, classified into the
   paper's Table-2 categories.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.encoding import QueryEncoding
from repro.core.layers import LayerConfig, resolution_layers
from repro.dns.message import Query
from repro.dns.zone import Zone
from repro.engine import control
from repro.engine.encoding import ZoneEncoder
from repro.engine.gopy import nameops, nodestack, respops
from repro.frontend import compile_module
from repro.ir import Module
from repro.refine import RefinementReport, check_refinement_nested
from repro.resilience import verdicts as verdicts_mod
from repro.resilience.budget import Budget, BudgetExhausted
from repro.spec import toplevel
from repro.solver import Solver
from repro.summary import Summary, summarize
from repro.symex import Executor, HeapLoader, OutOfBudgetError, PathState

# ---------------------------------------------------------------------------
# Compilation cache: GoPy modules compile once per process *per source
# text*. Keys carry the source digest (own plus externs'), so editing a
# version module on disk — the paper's porting workflow — recompiles
# instead of serving stale IR.
# ---------------------------------------------------------------------------

_IR_CACHE: Dict[Tuple, Module] = {}


def clear_ir_cache() -> None:
    """Drop every compiled module (tests and long-running daemons)."""
    _IR_CACHE.clear()


def _compiled(py_module, externs: Sequence[Module] = (),
              analysis: bool = False,
              phases: Optional[Dict[str, float]] = None) -> Module:
    from repro.incremental.digest import source_digest
    from repro.resilience import faults

    faults.maybe_raise(faults.SITE_COMPILE)

    # Externs are already-compiled Modules; identity captures their
    # provenance (a re-compiled base module is a new object, so dependents
    # recompile too). The analysis flag is part of the key because the
    # pruning pass rewrites the module in place — pruned and unpruned IR
    # must never share a cache entry.
    key = (
        py_module.__name__,
        source_digest(py_module),
        tuple((module.name, id(module)) for module in externs),
        analysis,
    )
    cached = _IR_CACHE.get(key)
    if cached is None:
        started = time.perf_counter()
        cached = compile_module(py_module, extern_modules=list(externs))
        compiled = time.perf_counter()
        if analysis:
            from repro.analysis import prune_module
            from repro.analysis.interproc import (
                compute_summaries,
                summaries_digest,
            )

            # Summaries over the externs (already pruned — the domain
            # reads ElidedGuardBr survive-conditions back) plus this
            # module, bottom-up, so pruning sees facts across calls.
            summaries = compute_summaries(list(externs) + [cached])
            cached.prune_report = prune_module(cached, summaries=summaries)
            cached.summary_digest = summaries_digest(summaries)
        if phases is not None:
            phases["compile"] += compiled - started
            if analysis:
                phases["analysis"] += time.perf_counter() - compiled
        _IR_CACHE[key] = cached
    return cached


def compile_engine_modules(
    version: str, analysis: bool = False,
    phases: Optional[Dict[str, float]] = None,
) -> List[Module]:
    """IR modules for one engine version plus the shared layers and the
    top-level specification; ``analysis=True`` runs the panic-pruning
    pass on each module as it is compiled. ``phases`` (a dict with
    ``compile`` and ``analysis`` keys) accumulates the seconds spent in
    the frontend and in the analysis for the modules this call had to
    build; a module from the cache adds nothing."""
    base = [
        _compiled(nameops, analysis=analysis, phases=phases),
        _compiled(nodestack, analysis=analysis, phases=phases),
        _compiled(respops, analysis=analysis, phases=phases),
    ]
    version_module = control.ENGINE_VERSIONS[version]
    return base + [
        _compiled(version_module, externs=base, analysis=analysis,
                  phases=phases),
        _compiled(toplevel, externs=base, analysis=analysis, phases=phases),
    ]


# ---------------------------------------------------------------------------
# Bug reports
# ---------------------------------------------------------------------------

#: Table-2 classification labels.
WRONG_FLAG = "Wrong Flag"
WRONG_ANSWER = "Wrong Answer"
WRONG_RCODE = "Wrong rcode"
WRONG_AUTHORITY = "Wrong Authority"
WRONG_ADDITIONAL = "Wrong Additional"
RUNTIME_ERROR = "Runtime Error"


@dataclass
class BugReport:
    """One validated divergence between an engine version and the spec."""

    version: str
    categories: Tuple[str, ...]
    query: Optional[Query]
    qname_codes: Tuple[int, ...]
    qtype_code: int
    description: str
    validated: bool
    engine_summary: str = ""
    expected_summary: str = ""

    def describe(self) -> str:
        where = self.query.to_text() if self.query is not None else (
            f"codes={list(self.qname_codes)} qtype={self.qtype_code}"
        )
        cats = ", ".join(self.categories)
        flag = "validated" if self.validated else "UNVALIDATED"
        return f"[{self.version}] {cats} on query {where} ({flag}): {self.description}"


@dataclass
class LayerResult:
    """Per-layer verification record (feeds Figure 12)."""

    name: str
    route: str
    elapsed_seconds: float
    paths: int
    cases: int = 0
    verified: bool = True


@dataclass
class VerificationResult:
    """Outcome of verifying one engine version on one zone.

    ``verdict`` is the typed outcome of the fault-tolerant runtime
    (:mod:`repro.resilience.verdicts`): VERIFIED/BUG coincide with the
    historical ``verified`` flag; UNKNOWN means the proof neither closed
    nor refuted (budget exhaustion, solver give-up — ``unknown_reason``
    says which, ``partial`` holds coverage so far); ERROR means the run
    itself failed (``error_class``/``error_detail`` classify it).
    """

    version: str
    zone_origin: str
    verified: bool
    bugs: List[BugReport] = field(default_factory=list)
    layers: List[LayerResult] = field(default_factory=list)
    refinement: Optional[RefinementReport] = None
    #: Wall time of ``verify()``; a session's first verify also carries
    #: its compile and analysis time.
    elapsed_seconds: float = 0.0
    solver_checks: int = 0
    spurious_mismatches: int = 0
    cache_stats: Optional[Dict[str, int]] = None
    verdict: str = verdicts_mod.VERIFIED
    unknown_reason: Optional[str] = None
    error_class: Optional[str] = None
    error_detail: str = ""
    partial: Optional[Dict[str, object]] = None
    #: Per-phase seconds — feeds the parallel executor's perf counters and
    #: the ``--json`` output. ``compile`` is the frontend plus the static
    #: analysis, charged (like ``elapsed_seconds``) to a session's first
    #: verify only; ``summarize`` is the wall time of the summarized
    #: layers and ``resolve`` that of the Resolve layer; ``solve`` is the
    #: time spent inside ``Solver.check`` during both, so it overlaps them
    #: rather than adding to them.
    #: Timing-only: never part of any canonical/deterministic projection.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Static-analysis accounting (None when the run predates the pass):
    #: ``enabled``, the static prune counts (``guards_total``/
    #: ``guards_pruned``/``panic_blocks_removed``) and the runtime counters
    #: (``panic_guard_checks``, ``pruned_guard_hits``,
    #: ``solver_checks_avoided``). Counter-only — like ``solver_checks``,
    #: never part of canonical verdict comparisons.
    analysis: Optional[Dict[str, object]] = None

    def bug_categories(self) -> List[str]:
        seen = []
        for bug in self.bugs:
            for category in bug.categories:
                if category not in seen:
                    seen.append(category)
        return seen

    def describe(self) -> str:
        if self.verdict == verdicts_mod.UNKNOWN:
            status = f"UNKNOWN ({self.unknown_reason})"
        elif self.verdict == verdicts_mod.ERROR:
            status = f"ERROR ({self.error_class}: {self.error_detail})"
        elif self.verified:
            status = "VERIFIED"
        else:
            status = f"{len(self.bugs)} bug(s) found"
        lines = [
            f"DNS-V {self.version} on {self.zone_origin}: {status} "
            f"({self.elapsed_seconds:.1f}s, {self.solver_checks} solver checks)"
        ]
        for layer in self.layers:
            lines.append(
                f"  layer {layer.name:<12} [{layer.route}] "
                f"{layer.elapsed_seconds:6.2f}s  {layer.paths} paths"
                + (f", {layer.cases} summary cases" if layer.cases else "")
            )
        if self.partial:
            coverage = ", ".join(
                f"{key}={value}" for key, value in sorted(self.partial.items())
            )
            lines.append(f"  partial coverage: {coverage}")
        for bug in self.bugs:
            lines.append("  " + bug.describe())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


class VerificationSession:
    """One (zone, engine version) verification setup."""

    def __init__(
        self,
        zone: Zone,
        version: str = "verified",
        depth: Optional[int] = None,
        solver: Optional[Solver] = None,
        max_paths: int = 200000,
        max_steps: int = 20_000_000,
        budget: Optional[Budget] = None,
        analysis: bool = True,
        analysis_check: bool = False,
    ):
        self.zone = zone
        self.version = version
        self.budget = budget
        if budget is not None:
            budget.start()
        self.analysis_enabled = analysis
        self.encoder = ZoneEncoder(zone)
        self.tree_go = control.build_domain_tree(self.encoder)
        self.flat_go = control.build_flat_zone(self.encoder)
        compile_started = time.perf_counter()
        #: Frontend and analysis seconds of the modules this session
        #: compiled, and the wall time of getting them, not yet charged to
        #: a result: the first ``verify()`` reports them as its ``compile``
        #: and ``analysis`` phases and adds the wall time to its own.
        self._uncharged_phases = {"compile": 0.0, "analysis": 0.0}
        modules = compile_engine_modules(version, analysis=analysis,
                                         phases=self._uncharged_phases)
        self._uncharged_compile = time.perf_counter() - compile_started
        self.prune_report = None
        self.summary_digest: Optional[str] = None
        if analysis:
            import hashlib

            from repro.analysis import PruneReport

            self.prune_report = PruneReport()
            digests = []
            for module in modules:
                module_report = getattr(module, "prune_report", None)
                if module_report is not None:
                    self.prune_report.merge(module_report)
                digests.append(getattr(module, "summary_digest", ""))
            # One digest over the whole module set's summary tables; rides
            # the result telemetry.
            self.summary_digest = hashlib.sha256(
                "|".join(digests).encode()
            ).hexdigest()
        self.executor = Executor(
            modules,
            solver=solver,
            max_paths=max_paths,
            max_steps=max_steps,
            budget=budget,
            analysis_check=analysis_check,
        )
        self.state = PathState()
        loader = HeapLoader(self.state.memory)
        self.tree_ptr = loader.load(self.tree_go)
        self.flat_ptr = loader.load(self.flat_go)
        self.query_encoding = QueryEncoding(self.encoder, depth)
        self.q_ptr = self.query_encoding.install(self.state)
        self.pre = self.query_encoding.preconditions()
        self.engine_resp_ptr = self.executor.new_object(self.state, "Response")
        self.spec_resp_ptr = self.executor.new_object(self.state, "Response")

    # -- restriction ------------------------------------------------------------

    def restrict(self, extra_pre: Sequence) -> None:
        """Conjoin extra constraints onto the global precondition (the
        incremental engine confines a session to one query-space
        partition this way). Call before any summarization."""
        self.pre = self.pre + list(extra_pre)

    # -- layered verification --------------------------------------------------

    def summarize_layer(self, layer: LayerConfig) -> Summary:
        summary = summarize(
            self.executor,
            layer.function,
            layer.params(self),
            state=self.state,
            pre=self.pre,
        )
        self.executor.bindings.bind_summary(layer.function, summary)
        return summary

    def verify(self, use_summaries: bool = True) -> VerificationResult:
        """Run the full pipeline; ``use_summaries=False`` is the ablation
        that inlines every layer (monolithic symbolic execution).

        Every outcome is a typed verdict: budget/path/step exhaustion is
        caught here and returned as ``UNKNOWN(reason)`` with partial
        coverage — never raised — so a campaign or partition loop simply
        continues with the next unit.
        """
        started = time.perf_counter()
        solver = self.executor.solver
        checks_before = solver.num_checks
        solve_before = solver.check_seconds
        stats = self.executor.stats
        guard_checks_before = stats.panic_guard_checks
        guard_hits_before = stats.pruned_guard_hits
        avoided_before = stats.pruned_checks_avoided
        by_fn_before = dict(stats.guard_checks_by_function)
        hits_by_fn_before = dict(stats.pruned_hits_by_function)
        result = VerificationResult(self.version, self.zone.origin.to_text(), True)
        try:
            self._verify_into(result, use_summaries)
        except BudgetExhausted as exc:
            self._mark_unknown(result, exc.reason, str(exc))
        except OutOfBudgetError as exc:
            self._mark_unknown(result, _exhaustion_reason(exc), str(exc))
        compile_wall, self._uncharged_compile = self._uncharged_compile, 0.0
        compiled = self._uncharged_phases
        self._uncharged_phases = {"compile": 0.0, "analysis": 0.0}
        result.elapsed_seconds = time.perf_counter() - started + compile_wall
        result.solver_checks = self.executor.solver.num_checks - checks_before
        result.analysis = {
            "enabled": self.analysis_enabled,
            "panic_guard_checks": stats.panic_guard_checks - guard_checks_before,
            "pruned_guard_hits": stats.pruned_guard_hits - guard_hits_before,
            "solver_checks_avoided": stats.pruned_checks_avoided - avoided_before,
            # Per-function residual guard checks and pruned crossings —
            # what makes a discharge regression attributable.
            "guard_checks_by_function": _dict_delta(
                stats.guard_checks_by_function, by_fn_before
            ),
            "pruned_hits_by_function": _dict_delta(
                stats.pruned_hits_by_function, hits_by_fn_before
            ),
        }
        if self.summary_digest is not None:
            result.analysis["summary_digest"] = self.summary_digest
        if self.prune_report is not None:
            result.analysis.update(
                guards_total=self.prune_report.guards_total,
                guards_pruned=self.prune_report.guards_pruned,
                panic_blocks_removed=self.prune_report.panic_blocks_removed,
            )
        result.phase_seconds = {
            "compile": round(compiled["compile"], 6),
            "analysis": round(compiled["analysis"], 6),
            "summarize": round(
                sum(l.elapsed_seconds for l in result.layers
                    if l.name != "Resolve"), 6,
            ),
            "resolve": round(
                sum(l.elapsed_seconds for l in result.layers
                    if l.name == "Resolve"), 6,
            ),
            "solve": round(solver.check_seconds - solve_before, 6),
        }
        return result

    def _mark_unknown(self, result: VerificationResult, reason: str,
                      detail: str) -> None:
        """Typed degradation: record what ran out plus coverage so far."""
        result.verified = False
        result.verdict = verdicts_mod.UNKNOWN
        result.unknown_reason = reason
        stats = self.executor.stats
        result.partial = {
            "steps": stats.steps,
            "forks": stats.forks,
            "paths": stats.paths,
            "layers_done": len(result.layers),
            "detail": detail,
        }
        if self.budget is not None:
            result.partial["budget"] = self.budget.snapshot()

    def _verify_into(self, result: VerificationResult,
                     use_summaries: bool) -> None:
        if use_summaries:
            for layer in resolution_layers():
                summary = self.summarize_layer(layer)
                result.layers.append(
                    LayerResult(
                        layer.name,
                        "summarize",
                        summary.elapsed_seconds,
                        summary.paths_explored,
                        cases=len(summary.cases),
                    )
                )

        top_started = time.perf_counter()
        report = check_refinement_nested(
            self.executor,
            "resolve",
            "rrlookup",
            [self.tree_ptr, self.q_ptr, self.query_encoding.qtype, self.engine_resp_ptr],
            [self.flat_ptr, self.q_ptr, self.query_encoding.qtype, self.spec_resp_ptr],
            state=self.state,
            pre=self.pre,
            observe_code=lambda outcome: self.engine_resp_ptr,
            observe_spec=lambda outcome: self.spec_resp_ptr,
        )
        result.layers.append(
            LayerResult(
                "Resolve",
                "toplevel",
                time.perf_counter() - top_started,
                report.code_paths,
                verified=report.verified,
            )
        )
        result.refinement = report

        for mismatch in report.mismatches:
            bug = self._decode_mismatch(mismatch)
            if bug is None:
                result.spurious_mismatches += 1
                continue
            result.bugs.append(bug)
        result.verified = report.verified and not result.bugs
        # A mismatch that failed validation still refutes the proof.
        if report.mismatches and not result.bugs:
            result.verified = False

        # Typed verdict: validated bugs refute; otherwise any solver
        # give-up or unvalidated mismatch leaves the proof open (UNKNOWN),
        # never silently dropped.
        if any(b.validated for b in result.bugs):
            result.verdict = verdicts_mod.BUG
        elif report.unknowns or report.mismatches:
            # Mismatches survive here only unvalidated (a modelless
            # solver give-up, or a counterexample native re-execution
            # could not reproduce): the proof is open, not refuted.
            result.verdict = verdicts_mod.UNKNOWN
            solverish = report.unknowns or any(
                b.query is None for b in result.bugs if not b.validated
            )
            result.unknown_reason = (
                verdicts_mod.REASON_SOLVER if solverish
                else verdicts_mod.REASON_UNVALIDATED
            )
        else:
            result.verdict = verdicts_mod.VERIFIED

    # -- counterexample decoding and validation ---------------------------------

    def _decode_mismatch(self, mismatch) -> Optional[BugReport]:
        model = mismatch.model
        if model is None:
            return BugReport(
                self.version,
                (RUNTIME_ERROR if mismatch.kind == "code-panic" else WRONG_ANSWER,),
                None,
                (),
                0,
                f"unverified mismatch ({mismatch.kind}); solver returned unknown",
                validated=False,
            )
        codes = tuple(self.query_encoding.query_codes(model))
        qtype_code = self.query_encoding.qtype_code(model)
        query = self.query_encoding.decode_query(model)

        if mismatch.kind == "code-panic":
            validated, detail = self._validate_panic(codes, qtype_code)
            return BugReport(
                self.version,
                (RUNTIME_ERROR,),
                query,
                codes,
                qtype_code,
                f"{mismatch.observation}; native re-execution: {detail}",
                validated=validated,
            )

        engine_resp, engine_error = self._native_engine(codes, qtype_code)
        spec_resp, _ = self._native_spec(codes, qtype_code)
        if engine_error is not None:
            return BugReport(
                self.version,
                (RUNTIME_ERROR,),
                query,
                codes,
                qtype_code,
                f"engine crashed natively: {engine_error}",
                validated=True,
            )
        categories, diffs = classify_divergence(engine_resp, spec_resp)
        if not categories:
            return None  # spurious (e.g. record-order-only difference)
        return BugReport(
            self.version,
            tuple(categories),
            query,
            codes,
            qtype_code,
            "; ".join(diffs[:4]),
            validated=True,
            engine_summary=_summarise_response(engine_resp),
            expected_summary=_summarise_response(spec_resp),
        )

    def _native_engine(self, codes, qtype_code):
        try:
            resp = control.run_engine_concrete(
                control.ENGINE_VERSIONS[self.version], self.tree_go, list(codes), qtype_code
            )
            return resp, None
        except (IndexError, AttributeError, TypeError) as exc:
            return None, f"{type(exc).__name__}: {exc}"

    def _native_spec(self, codes, qtype_code):
        from repro.engine.gopy.structs import Response as GoResponse

        resp = GoResponse()
        toplevel.rrlookup(self.flat_go, list(codes), qtype_code, resp)
        return resp, None

    def _validate_panic(self, codes, qtype_code):
        _, error = self._native_engine(codes, qtype_code)
        if error is not None:
            return True, error
        return False, "no native crash reproduced"


def _dict_delta(now: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    """Per-key counter deltas, dropping keys that did not move."""
    return {
        key: value - before.get(key, 0)
        for key, value in sorted(now.items())
        if value - before.get(key, 0)
    }


def _exhaustion_reason(exc: OutOfBudgetError) -> str:
    """Map the executor's own hard limits onto the UNKNOWN taxonomy."""
    text = str(exc)
    if "path budget" in text:
        return verdicts_mod.REASON_PATHS
    if "call depth" in text:
        return verdicts_mod.REASON_DEPTH
    return verdicts_mod.REASON_STEPS


# ---------------------------------------------------------------------------
# Divergence classification (Table 2 vocabulary)
# ---------------------------------------------------------------------------


def _section_multiset(records):
    return sorted((tuple(r.rname), r.rtype, r.rdata_id) for r in records)


def classify_divergence(engine_resp, spec_resp) -> Tuple[List[str], List[str]]:
    """Compare two native responses semantically; return Table-2 category
    labels and human-readable differences."""
    categories: List[str] = []
    diffs: List[str] = []
    if engine_resp.rcode != spec_resp.rcode:
        categories.append(WRONG_RCODE)
        diffs.append(f"rcode {engine_resp.rcode} != expected {spec_resp.rcode}")
    if engine_resp.aa != spec_resp.aa:
        categories.append(WRONG_FLAG)
        diffs.append(f"aa {engine_resp.aa} != expected {spec_resp.aa}")
    for section, label in (
        ("answer", WRONG_ANSWER),
        ("authority", WRONG_AUTHORITY),
        ("additional", WRONG_ADDITIONAL),
    ):
        got = _section_multiset(getattr(engine_resp, section))
        want = _section_multiset(getattr(spec_resp, section))
        if got != want:
            categories.append(label)
            missing = len([r for r in want if r not in got])
            extra = len([r for r in got if r not in want])
            diffs.append(f"{section}: {missing} missing, {extra} extraneous")
    return categories, diffs


def _summarise_response(resp) -> str:
    return (
        f"rcode={resp.rcode} aa={int(resp.aa)} "
        f"ans={len(resp.answer)} auth={len(resp.authority)} add={len(resp.additional)}"
    )


def verify_engine(
    zone: Zone,
    version: str = "verified",
    options=None,
    *,
    cache=None,
    budget: Optional[Budget] = None,
    solver: Optional[Solver] = None,
) -> VerificationResult:
    """One-call convenience API: verify ``version`` on ``zone``.

    Configuration travels in ``options``
    (:class:`repro.core.options.VerifyOptions`); live objects — an open
    ``cache``, a running ``budget``, a custom ``solver`` — stay explicit
    keyword arguments. When ``options.workers`` is set, or a non-default
    planner is chosen, the run goes through the unit-based
    :class:`~repro.incremental.engine.IncrementalVerifier` (pooled via
    :mod:`repro.parallel` for more than one worker, each unit under its
    own plan from ``options.faults``), whose merged result is
    deterministic across worker counts. Otherwise the run is one
    monolithic :func:`~repro.incremental.engine.verify_unit` under the
    whole-run fault plan ``options.faults`` describes (installed here,
    when given); with a ``cache`` (or ``options.cache_dir``) it goes
    through :func:`~repro.incremental.engine.verify_cached`, where a
    stored verdict replays without compiling anything.
    """
    from contextlib import nullcontext

    from repro.core.options import VerifyOptions
    from repro.incremental.engine import (
        IncrementalVerifier,
        verify_cached,
        verify_unit,
    )
    from repro.resilience import faults

    if options is None:
        options = VerifyOptions()
    if cache is None:
        cache = options.make_cache()
    if options.workers is not None or options.planner not in (None, "by-label"):
        verifier = IncrementalVerifier(zone, version, cache=cache,
                                       options=options)
        outcome = verifier.verify_current()
        result = outcome.result
        if result.cache_stats is None:
            result.cache_stats = outcome.reuse.cache
        return result
    plan = options.make_fault_plan()
    with faults.active(plan) if plan is not None else nullcontext():
        if cache is not None:
            return verify_cached(zone, version, options, cache,
                                 budget=budget, solver=solver)
        return verify_unit(zone, version, options, budget=budget,
                           solver=solver)
