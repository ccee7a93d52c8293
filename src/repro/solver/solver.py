"""The incremental solver facade used by the rest of DNS-V.

Plays the role Z3 plays in the paper: path-condition satisfiability during
symbolic execution, equivalence checking during refinement, and model
(counterexample) extraction. The facade adds fixed assertions, a result
cache keyed on the set of formulas checked, a cross-query theory cache, and
convenience entailment helpers on top of :mod:`repro.solver.sat`.
"""

from __future__ import annotations

import enum
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Union

from repro.resilience import faults
from repro.solver import sat
from repro.solver.pathcond import TRUE_PATH, PathCondition
from repro.solver.terms import (
    EQ,
    NE,
    And,
    Atom,
    BoolConst,
    BoolExpr,
    BoolLit,
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
    """Solver with fixed assertions and a result cache.

    Typical use by the symbolic executor: one check per branch side, the
    path condition handed over as the persistent node it already is::

        if solver.check(cond, path=state.pc) is SolveResult.SAT:
            model = solver.model()

    UNKNOWN results are rare (budget exhaustion outside the supported
    fragment); callers decide their own sound default — the executor treats
    UNKNOWN branches as feasible, the refinement checker treats UNKNOWN
    proofs as failures.
    """

    def __init__(self, node_limit: int = 200000, budget=None):
        self._assertions: List[BoolExpr] = []
        self._cache = sat.TheoryCache()
        self._node_limit = node_limit
        self._model: Optional[Model] = None
        #: Formula -> its position in the bit sets that key
        #: ``_result_cache``: a key is the set of distinct formulas of one
        #: query (assertions, path, extras) as an int with those bits set.
        self._formula_index: Dict[BoolExpr, int] = {}
        self._result_cache: Dict[int, tuple] = {}
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

    # -- assertions ----------------------------------------------------------

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
              path: PathCondition = TRUE_PATH) -> SolveResult:
        """Satisfiability of the assertions plus ``path`` plus ``extra``.

        ``path`` is a path condition, handed over as the persistent node it
        already is (``extra`` may also hold plain bools). Results are
        cached on the *set* of formulas, whatever their order or
        multiplicity; the key of ``path`` is memoised on its node, so a
        check costs O(1) key work, and the formula list is built only when
        the sat core actually runs — in the order assertions, path (in
        assumption order), extras, which fixes the search order and so the
        models.

        A miss whose extra literal (an atom or boolean literal) has its
        negation among the query's own formulas is UNSAT without running
        the sat core: the executor's check of a branch side the path has
        already decided the other way. The core would meet that pair at
        its root, before any split or theory call, and answer UNSAT too;
        only the path flatten and the search are skipped.

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

    def _check(self, path: PathCondition, extra, guard: bool) -> SolveResult:
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

        extras = [bool_const(f) if isinstance(f, bool) else f for f in extra]
        key = self._path_key(path)
        for formula in self._assertions:
            key |= self._bit(formula)
        for formula in extras:
            key |= self._bit(formula)
        cached = self._result_cache.get(key)
        if cached is not None:
            result, model = cached
            self._model = model
            return result

        formulas = None
        refuted = False
        if guard:
            formulas = [*self._assertions, *path.formulas(), *extras]
            self.guard_prepass_checks += 1
            refuted = _difference_infeasible(formulas)
            self.guard_prepass_unsat += refuted
        if refuted or self._complement_in(key, extras):
            # Count the dispatch exactly as the sat core would, so every
            # counter downstream is agnostic of the shortcut taken.
            self.num_checks += 1
            self._model = None
            self._result_cache[key] = (SolveResult.UNSAT, None)
            return SolveResult.UNSAT

        if formulas is None:
            formulas = [*self._assertions, *path.formulas(), *extras]
        self.num_checks += 1
        sat_result, model_dict = sat.check_formulas(
            formulas, self._cache, self._node_limit
        )
        result = _FROM_SAT[sat_result]
        model = Model(model_dict) if model_dict is not None else None
        self._model = model
        self._result_cache[key] = (result, model)
        return result

    def _complement_in(self, key: int, extras: List[BoolExpr]) -> bool:
        """True iff some extra literal's negation is already one of the
        query's top-level formulas (a bit of ``key``), which makes the
        query UNSAT by that pair alone."""
        index = self._formula_index
        for formula in extras:
            if isinstance(formula, (Atom, BoolLit)):
                position = index.get(not_(formula))
                if position is not None and key >> position & 1:
                    return True
        return False

    def _bit(self, formula: BoolExpr) -> int:
        index = self._formula_index
        position = index.get(formula)
        if position is None:
            position = index[formula] = len(index)
        return 1 << position

    def _path_key(self, path: PathCondition) -> int:
        """The bit set of ``path``'s distinct formulas, memoised on the
        node: only the nodes since the nearest ancestor this solver has
        already keyed are visited."""
        index = self._formula_index
        if path.key_owner is index:
            return path.key
        pending = []
        node = path
        while node.length and node.key_owner is not index:
            pending.append(node.condition)
            node = node.parent
        key = node.key if node.length else 0
        for formula in reversed(pending):
            key |= self._bit(formula)
        if path.length:
            path.key_owner = index
            path.key = key
        return key

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
