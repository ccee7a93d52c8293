"""Pairwise path-product refinement checking and safety checking."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.solver import SolveResult
from repro.solver.solver import Model
from repro.solver.terms import BoolExpr, and_
from repro.refine.diff import value_diff_formula
from repro.symex.errors import SymexError
from repro.symex.executor import Executor, Outcome, PanicInfo
from repro.symex.state import PathState


@dataclass
class Mismatch:
    """A refinement counterexample: a model under which a code path and a
    spec path are simultaneously feasible yet observably differ."""

    kind: str  # "output-differs" | "code-panic" | "spec-panic"
    model: Optional[Model]
    code_outcome: Optional[Outcome]
    spec_outcome: Optional[Outcome]
    observation: str = ""

    def describe(self) -> str:
        parts = [f"mismatch[{self.kind}]"]
        if self.observation:
            parts.append(self.observation)
        if self.model is not None:
            parts.append(f"model: {self.model!r}")
        return " ".join(parts)


@dataclass
class RefinementReport:
    """Outcome of one refinement check."""

    code_name: str
    spec_name: str
    verified: bool
    mismatches: List[Mismatch] = field(default_factory=list)
    code_paths: int = 0
    spec_paths: int = 0
    pairs_checked: int = 0
    elapsed_seconds: float = 0.0
    unknowns: int = 0

    def describe(self) -> str:
        status = "VERIFIED" if self.verified else "FAILED"
        lines = [
            f"refinement {self.code_name} ⊑ {self.spec_name}: {status} "
            f"({self.code_paths} code paths × {self.spec_paths} spec paths, "
            f"{self.pairs_checked} feasible pairs, {self.elapsed_seconds:.2f}s)"
        ]
        for mismatch in self.mismatches:
            lines.append("  " + mismatch.describe())
        return "\n".join(lines)


@dataclass
class SafetyReport:
    """Panic reachability for one function (section 6.1's safety)."""

    function: str
    safe: bool
    reachable_panics: List[Tuple[PanicInfo, Optional[Model]]] = field(
        default_factory=list
    )
    paths: int = 0
    elapsed_seconds: float = 0.0

    def describe(self) -> str:
        status = "SAFE" if self.safe else "UNSAFE"
        lines = [f"safety {self.function}: {status} ({self.paths} paths)"]
        for info, model in self.reachable_panics:
            lines.append(f"  {info} | model: {model!r}")
        return "\n".join(lines)


Observation = Callable[[Outcome], Dict[str, object]]


def _default_observation(outcome: Outcome) -> Dict[str, object]:
    return {"ret": outcome.value}


def check_refinement(
    executor: Executor,
    code_name: str,
    spec_name: str,
    code_args: Sequence[object],
    spec_args: Sequence[object],
    state: Optional[PathState] = None,
    pre: Sequence[BoolExpr] = (),
    relation: Sequence[BoolExpr] = (),
    observe: Observation = _default_observation,
    stop_at_first: bool = False,
) -> RefinementReport:
    """Prove that ``code_name`` refines ``spec_name``.

    Both functions run from (forks of) the same initial ``state`` under
    ``pre``; ``relation`` holds the interface-configuration axioms linking
    the two input encodings; ``observe`` picks the outputs compared (the
    return value by default).
    """
    base = state.fork() if state is not None else PathState()
    started = time.perf_counter()

    code_outcomes = executor.run(code_name, list(code_args), state=base.fork(), pre=pre)
    spec_outcomes = executor.run(spec_name, list(spec_args), state=base.fork(), pre=pre)

    report = RefinementReport(
        code_name,
        spec_name,
        verified=True,
        code_paths=len(code_outcomes),
        spec_paths=len(spec_outcomes),
    )
    solver = executor.solver
    relation_list = list(relation)

    for code_out in code_outcomes:
        if code_out.is_panic:
            verdict = solver.check(*relation_list, path=code_out.state.pc)
            if verdict is not SolveResult.UNSAT:
                model = solver.model() if verdict is SolveResult.SAT else None
                report.mismatches.append(
                    Mismatch("code-panic", model, code_out, None, str(code_out.panic))
                )
                report.verified = False
                if stop_at_first:
                    break
    if not (stop_at_first and not report.verified):
        for spec_out in spec_outcomes:
            if spec_out.is_panic:
                panic_verdict = solver.check(path=spec_out.state.pc)
                if panic_verdict is SolveResult.UNSAT:
                    continue
                if panic_verdict is SolveResult.UNKNOWN:
                    # A degraded solver cannot prove the panic path
                    # infeasible: that is an unknown, not a crash.
                    report.unknowns += 1
                    report.verified = False
                    continue
                raise SymexError(
                    f"specification {spec_name} has a reachable panic: "
                    f"{spec_out.panic}"
                )

        code_normal = [o for o in code_outcomes if not o.is_panic]
        for code_out in code_normal:
            if stop_at_first and not report.verified:
                break
            for spec_out in spec_outcomes:
                if spec_out.is_panic:
                    continue
                joint = code_out.state.pc.assume_all(spec_out.state.pc)
                verdict = solver.check(*relation_list, path=joint)
                if verdict is SolveResult.UNSAT:
                    continue
                report.pairs_checked += 1
                code_obs = observe(code_out)
                spec_obs = observe(spec_out)
                if set(code_obs) != set(spec_obs):
                    raise SymexError("observation keys differ between code and spec")
                diff_parts = []
                for key in code_obs:
                    diff_parts.append(
                        value_diff_formula(
                            code_obs[key],
                            code_out.state.memory,
                            spec_obs[key],
                            spec_out.state.memory,
                        )
                    )
                from repro.solver.terms import or_

                differs = or_(*diff_parts)
                verdict = solver.check(*relation_list, differs, path=joint)
                if verdict is SolveResult.UNSAT:
                    continue
                model = solver.model() if verdict is SolveResult.SAT else None
                if verdict is SolveResult.UNKNOWN:
                    report.unknowns += 1
                report.mismatches.append(
                    Mismatch(
                        "output-differs",
                        model,
                        code_out,
                        spec_out,
                        f"outputs can diverge on keys {sorted(code_obs)}",
                    )
                )
                report.verified = False
                if stop_at_first:
                    break

    report.elapsed_seconds = time.perf_counter() - started
    return report


def check_refinement_nested(
    executor: Executor,
    code_name: str,
    spec_name: str,
    code_args: Sequence[object],
    spec_args: Sequence[object],
    state: PathState,
    pre: Sequence[BoolExpr] = (),
    observe_code: Optional[Callable[[Outcome], object]] = None,
    observe_spec: Optional[Callable[[Outcome], object]] = None,
    max_mismatches: int = 64,
) -> RefinementReport:
    """Refinement with the specification executed *under each code path*.

    Running the spec seeded with a code path's condition lets the solver
    prune almost every spec branch (the engine path pins the query's
    relationship to every zone name), avoiding the quadratic cross-product
    of :func:`check_refinement`. This is the mode the pipeline uses for
    ``Resolve`` against the top-level specification.

    ``observe_code``/``observe_spec`` return the value to compare (default:
    return value); both are read in the *final* memory of the spec run —
    valid because the spec never mutates the code's result blocks.
    """
    observe_code = observe_code or (lambda outcome: outcome.value)
    observe_spec = observe_spec or (lambda outcome: outcome.value)
    started = time.perf_counter()
    base = state.fork()
    code_outcomes = executor.run(code_name, list(code_args), state=base, pre=pre)
    report = RefinementReport(
        code_name, spec_name, verified=True, code_paths=len(code_outcomes)
    )
    solver = executor.solver

    for code_out in code_outcomes:
        if len(report.mismatches) >= max_mismatches:
            break
        if code_out.is_panic:
            verdict = solver.check(path=code_out.state.pc)
            if verdict is not SolveResult.UNSAT:
                model = solver.model() if verdict is SolveResult.SAT else None
                report.mismatches.append(
                    Mismatch("code-panic", model, code_out, None, str(code_out.panic))
                )
                report.verified = False
            continue
        spec_outcomes = executor.run(
            spec_name, list(spec_args), state=code_out.state.fork()
        )
        report.spec_paths += len(spec_outcomes)
        code_value = observe_code(code_out)
        for spec_out in spec_outcomes:
            if spec_out.is_panic:
                panic_verdict = solver.check(path=spec_out.state.pc)
                if panic_verdict is SolveResult.UNSAT:
                    continue
                if panic_verdict is SolveResult.UNKNOWN:
                    # A degraded solver cannot prove the panic path
                    # infeasible: that is an unknown, not a crash.
                    report.unknowns += 1
                    report.verified = False
                    continue
                raise SymexError(
                    f"specification {spec_name} has a reachable panic: "
                    f"{spec_out.panic}"
                )
            report.pairs_checked += 1
            memory = spec_out.state.memory
            differs = value_diff_formula(
                code_value, memory, observe_spec(spec_out), memory
            )
            verdict = solver.check(differs, path=spec_out.state.pc)
            if verdict is SolveResult.UNSAT:
                continue
            model = solver.model() if verdict is SolveResult.SAT else None
            if verdict is SolveResult.UNKNOWN:
                report.unknowns += 1
            report.mismatches.append(
                Mismatch(
                    "output-differs",
                    model,
                    code_out,
                    spec_out,
                    "responses can diverge",
                )
            )
            report.verified = False
            if len(report.mismatches) >= max_mismatches:
                break

    report.elapsed_seconds = time.perf_counter() - started
    return report


def check_safety(
    executor: Executor,
    function_name: str,
    args: Sequence[object],
    state: Optional[PathState] = None,
    pre: Sequence[BoolExpr] = (),
) -> SafetyReport:
    """Prove that no panic block of ``function_name`` is reachable."""
    base = state.fork() if state is not None else PathState()
    started = time.perf_counter()
    outcomes = executor.run(function_name, list(args), state=base, pre=pre)
    report = SafetyReport(function_name, safe=True, paths=len(outcomes))
    solver = executor.solver
    for outcome in outcomes:
        if not outcome.is_panic:
            continue
        verdict = solver.check(path=outcome.state.pc)
        if verdict is SolveResult.UNSAT:
            continue
        model = solver.model() if verdict is SolveResult.SAT else None
        report.reachable_panics.append((outcome.panic, model))
        report.safe = False
    report.elapsed_seconds = time.perf_counter() - started
    return report
