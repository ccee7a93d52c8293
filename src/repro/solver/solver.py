"""The incremental solver facade used by the rest of DNS-V.

Plays the role Z3 plays in the paper: path-condition satisfiability during
symbolic execution, equivalence checking during refinement, and model
(counterexample) extraction. The facade adds a result cache keyed on the
set of formulas checked and a cross-query theory cache on top of
:mod:`repro.solver.sat`.
"""

from __future__ import annotations

import enum
from time import perf_counter
from typing import Dict, List, Optional, Union

from repro.resilience import faults
from repro.solver import sat
from repro.solver.pathcond import TRUE_PATH, PathCondition
from repro.solver.terms import (
    Atom,
    BoolExpr,
    BoolLit,
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
    """Solver with a result cache.

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
        self._cache = sat.TheoryCache()
        self._node_limit = node_limit
        self._model: Optional[Model] = None
        #: Formula -> its position in the bit sets that key
        #: ``_result_cache``: a key is the set of distinct formulas of one
        #: query (path, extras) as an int with those bits set.
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

    # -- checking ------------------------------------------------------------

    def check(self, *extra: Union[BoolExpr, bool],
              path: PathCondition = TRUE_PATH) -> SolveResult:
        """Satisfiability of ``path`` plus ``extra``.

        ``path`` is a path condition, handed over as the persistent node it
        already is (``extra`` may also hold plain bools). Results are
        cached on the *set* of formulas, whatever their order or
        multiplicity; the key of ``path`` is memoised on its node, so a
        check costs O(1) key work, and the formula list is built only when
        the sat core actually runs — in the order path (in assumption
        order), extras, which fixes the search order and so the models.

        A miss whose extra literal (an atom or boolean literal) has its
        negation among the query's own formulas is UNSAT without running
        the sat core: the executor's check of a branch side the path has
        already decided the other way. The core would meet that pair at
        its root, before any split or theory call, and answer UNSAT too;
        only the path flatten and the search are skipped.
        """
        started = perf_counter()
        try:
            return self._check(path, extra)
        finally:
            self.check_seconds += perf_counter() - started

    def _check(self, path: PathCondition, extra) -> SolveResult:
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
        for formula in extras:
            key |= self._bit(formula)
        cached = self._result_cache.get(key)
        if cached is not None:
            result, model = cached
            self._model = model
            return result

        if self._complement_in(key, extras):
            # Count the dispatch exactly as the sat core would, so every
            # counter downstream is agnostic of the shortcut taken.
            self.num_checks += 1
            self._model = None
            self._result_cache[key] = (SolveResult.UNSAT, None)
            return SolveResult.UNSAT

        formulas = [*path.formulas(), *extras]
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
