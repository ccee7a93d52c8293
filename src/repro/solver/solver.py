"""The incremental solver facade used by the rest of DNS-V.

Plays the role Z3 plays in the paper: path-condition satisfiability during
symbolic execution, equivalence checking during refinement, and model
(counterexample) extraction. The facade adds an assertion stack
(``push``/``pop``), a cross-query theory cache, and convenience entailment
helpers on top of :mod:`repro.solver.sat`.
"""

from __future__ import annotations

import enum
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.resilience import faults
from repro.solver import sat
from repro.solver.terms import (
    EQ,
    NE,
    And,
    Atom,
    BoolConst,
    BoolExpr,
    and_,
    bool_const,
    eval_expr,
    free_vars,
    not_,
)


class SolveResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


_FROM_SAT = {
    sat.SatResult.SAT: SolveResult.SAT,
    sat.SatResult.UNSAT: SolveResult.UNSAT,
    sat.SatResult.UNKNOWN: SolveResult.UNKNOWN,
}


class Model:
    """An assignment of symbolic constants; unmentioned variables are
    unconstrained and default as requested."""

    def __init__(self, values: Dict[str, Union[int, bool]]):
        self._values = dict(values)

    def get_int(self, name: str, default: int = 0) -> int:
        value = self._values.get(name, default)
        return int(value)

    def get_bool(self, name: str, default: bool = False) -> bool:
        return bool(self._values.get(name, default))

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def as_dict(self) -> Dict[str, Union[int, bool]]:
        return dict(self._values)

    def evaluate(self, expr):
        """Evaluate an expression, defaulting missing variables to 0/False."""
        names = free_vars(expr)
        filled = {name: self._values.get(name, 0) for name in names}
        return eval_expr(expr, filled)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Model({inner})"


class Solver:
    """Incremental solver with an assertion stack.

    Typical use by the symbolic executor::

        solver = Solver()
        solver.push()
        solver.add(path_condition)
        if solver.check() is SolveResult.SAT:
            model = solver.model()
        solver.pop()

    UNKNOWN results are rare (budget exhaustion outside the supported
    fragment); callers decide their own sound default — the executor treats
    UNKNOWN branches as feasible, the refinement checker treats UNKNOWN
    proofs as failures.
    """

    def __init__(self, node_limit: int = 200000, budget=None):
        self._assertions: List[BoolExpr] = []
        self._stack: List[int] = []
        self._cache = sat.TheoryCache()
        self._node_limit = node_limit
        self._model: Optional[Model] = None
        self._result_cache: Dict[frozenset, tuple] = {}
        self.num_checks = 0
        #: Seconds spent inside :meth:`check`, summed over every call.
        self.check_seconds = 0.0
        #: Optional[repro.resilience.Budget] — consulted cooperatively at
        #: check entry; exhaustion degrades the check to UNKNOWN (the sound
        #: default everywhere) instead of raising out of the search.
        self.budget = budget
        self.budget_unknowns = 0
        self.injected_unknowns = 0
        #: Guard-flagged queries the difference-bound prepass decided
        #: UNSAT without dispatching the sat core (and how many it
        #: looked at). Telemetry only — the prepass never changes a
        #: verdict, it only reaches UNSAT cheaper.
        self.guard_prepass_unsat = 0
        self.guard_prepass_checks = 0

    # -- assertion stack ---------------------------------------------------

    def push(self) -> None:
        self._stack.append(len(self._assertions))

    def pop(self) -> None:
        if not self._stack:
            raise RuntimeError("pop without matching push")
        depth = self._stack.pop()
        del self._assertions[depth:]

    def add(self, *formulas: Union[BoolExpr, bool]) -> None:
        for formula in formulas:
            if isinstance(formula, bool):
                formula = bool_const(formula)
            if not isinstance(formula, BoolExpr):
                raise TypeError(f"not a boolean formula: {formula!r}")
            self._assertions.append(formula)

    @property
    def assertions(self) -> List[BoolExpr]:
        return list(self._assertions)

    # -- checking ------------------------------------------------------------

    def check(self, *extra: Union[BoolExpr, bool], guard: bool = False,
              path: Sequence[BoolExpr] = ()) -> SolveResult:
        """Satisfiability of the assertions plus ``path`` plus ``extra``.

        ``path`` is a path condition, handed over as the list it already
        is: its formulas must be :class:`BoolExpr` (``extra`` may also
        hold plain bools), so they are neither splatted nor converted.

        ``guard=True`` marks a panic-guard feasibility query (the
        executor's hot path): a difference-bound prepass scans the
        conjunction for unit-coefficient atoms and runs a Bellman-Ford
        negative-cycle check first. The prepass only ever answers UNSAT
        (a subset of the constraints being infeasible makes the whole
        query infeasible), so results are exactly what the sat core
        would return — just cheaper when the analysis-discharged facts
        already close the cycle.
        """
        started = perf_counter()
        try:
            return self._check(path, extra, guard)
        finally:
            self.check_seconds += perf_counter() - started

    def _check(self, path: Sequence[BoolExpr], extra, guard: bool) -> SolveResult:
        # Degraded modes come first and are never result-cached: a later
        # check of the same formulas under a fresh budget must re-solve.
        if self.budget is not None and self.budget.exhausted() is not None:
            self.budget_unknowns += 1
            self._model = None
            return SolveResult.UNKNOWN
        if faults.should_fire(faults.SITE_SOLVER):
            self.injected_unknowns += 1
            self._model = None
            return SolveResult.UNKNOWN

        formulas = [*self._assertions, *path]
        for formula in extra:
            if isinstance(formula, bool):
                formula = bool_const(formula)
            formulas.append(formula)

        key = frozenset(formulas)
        cached = self._result_cache.get(key)
        if cached is not None:
            result, model = cached
            self._model = model
            return result

        if guard:
            self.guard_prepass_checks += 1
            if _difference_infeasible(formulas):
                # Count the dispatch exactly as the sat core would, so
                # every counter downstream is prepass-agnostic.
                self.num_checks += 1
                self.guard_prepass_unsat += 1
                self._model = None
                self._result_cache[key] = (SolveResult.UNSAT, None)
                return SolveResult.UNSAT

        self.num_checks += 1
        sat_result, model_dict = sat.check_formulas(
            formulas, self._cache, self._node_limit
        )
        result = _FROM_SAT[sat_result]
        model = Model(model_dict) if model_dict is not None else None
        self._model = model
        self._result_cache[key] = (result, model)
        return result

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("no model available (last check was not SAT)")
        return self._model

    # -- derived judgements -----------------------------------------------

    def is_satisfiable(self, *extra: BoolExpr) -> bool:
        """True unless proven UNSAT. The sound default for path pruning:
        an UNKNOWN branch is still explored."""
        return self.check(*extra) is not SolveResult.UNSAT

    def entails(self, formula: BoolExpr) -> bool:
        """True iff assertions ⊨ formula (proven). UNKNOWN counts as not
        proven — the sound default for refinement obligations."""
        return self.check(not_(formula)) is SolveResult.UNSAT

    def equivalent(self, a: BoolExpr, b: BoolExpr) -> bool:
        """True iff a and b agree under the current assertions (proven)."""
        differ = or_differ(a, b)
        return self.check(differ) is SolveResult.UNSAT


#: Edge-count ceiling for the guard prepass; past it, Bellman-Ford costs
#: more than it saves and the sat core (with its theory cache) wins.
_PREPASS_MAX_EDGES = 2000


def _difference_infeasible(formulas: List[BoolExpr]) -> bool:
    """True iff the unit-difference fragment of ``formulas`` is already
    infeasible (a negative cycle in the induced constraint graph).

    Only atoms of the form ``±x + c <= 0``, ``x - y + c <= 0`` or their
    equality variants contribute; everything else is ignored, which is
    what makes an UNSAT answer sound and a SAT answer impossible.
    """
    edges: List[tuple] = []  # (u, v, c) meaning u - v <= c; "" is zero
    stack = list(formulas)
    while stack:
        formula = stack.pop()
        if isinstance(formula, And):
            stack.extend(formula.args)
            continue
        if isinstance(formula, BoolConst):
            if not formula.value:
                return True
            continue
        if not isinstance(formula, Atom) or formula.kind == NE:
            continue
        coeffs = formula.expr.coeffs
        if len(coeffs) > 2 or any(abs(c) != 1 for _, c in coeffs):
            continue
        pos = [n for n, c in coeffs if c == 1]
        neg = [n for n, c in coeffs if c == -1]
        if len(pos) > 1 or len(neg) > 1:
            continue
        u = pos[0] if pos else ""
        v = neg[0] if neg else ""
        # expr <= 0 is u - v + const <= 0, i.e. u - v <= -const.
        edges.append((u, v, -formula.expr.const))
        if formula.kind == EQ:
            edges.append((v, u, formula.expr.const))
    if not edges or len(edges) > _PREPASS_MAX_EDGES:
        return False
    nodes = {""}
    for u, v, _ in edges:
        nodes.add(u)
        nodes.add(v)
    # Bellman-Ford from a virtual all-zeros source: a relaxation still
    # firing after |V| full passes witnesses a negative cycle.
    dist = {n: 0 for n in nodes}
    for _ in range(len(nodes)):
        changed = False
        for u, v, c in edges:
            through = dist[v] + c
            if through < dist[u]:
                dist[u] = through
                changed = True
        if not changed:
            return False
    return True


def or_differ(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    """Formula that is true exactly when ``a`` and ``b`` disagree."""
    return and_(a, not_(b)) | and_(not_(a), b)


def conjunction(formulas: Iterable[BoolExpr]) -> BoolExpr:
    return and_(*list(formulas))
