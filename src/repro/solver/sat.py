"""DPLL-style search over the boolean skeleton with lazy theory checks.

Formulas arrive in NNF (guaranteed by the smart constructors in
:mod:`repro.solver.terms`). The search maintains a partial assignment —
boolean literals plus a growing set of linear atoms — and splits on
disjunctions. Conjunctions of atoms are discharged by the theory solver
(:mod:`repro.solver.theory`), whose verdicts are memoised per independent
component of the atom set: symbolic execution re-checks many near-identical
path conditions, and what changes between them is usually one small group
of atoms sharing variables while the other groups repeat exactly.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.solver import theory
from repro.solver.terms import (
    And,
    Atom,
    BoolConst,
    BoolExpr,
    BoolLit,
    Or,
    not_,
)

ModelDict = Dict[str, Union[int, bool]]


class SatResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class TheoryCache:
    """Memo of theory verdicts keyed by independent component.

    An atom set splits into components that share no variables (the
    constant atoms, if any, form one more). The conjunction is UNSAT iff
    some component is, and otherwise SAT with the union of the component
    models (their variables are disjoint), so each component is decided
    once by :func:`theory.check_conjunction` and memoised by its exact
    atom set; ``hits``/``misses`` count component lookups.
    """

    def __init__(self):
        self._cache: Dict[FrozenSet[Atom], Tuple[theory.TheoryResult, Optional[Dict[str, int]]]] = {}
        self.hits = 0
        self.misses = 0

    def check(self, atoms: FrozenSet[Atom]):
        model: Dict[str, int] = {}
        unknown = False
        for component in _components(atoms):
            cached = self._cache.get(component)
            if cached is None:
                self.misses += 1
                cached = self._cache[component] = theory.check_conjunction(component)
            else:
                self.hits += 1
            verdict, part = cached
            if verdict is theory.TheoryResult.UNSAT:
                return cached
            if verdict is theory.TheoryResult.UNKNOWN:
                unknown = True
            elif not unknown:
                model.update(part)
        if unknown:
            return theory.TheoryResult.UNKNOWN, None
        return theory.TheoryResult.SAT, model


def _components(atoms: FrozenSet[Atom]) -> List[FrozenSet[Atom]]:
    """``atoms`` split into groups that share no variables (union-find
    over variable names); the constant atoms form one group of their own."""
    owner: Dict[str, list] = {}  # variable -> [atoms, variables] of its group
    groups = []
    constants = []
    for atom in atoms:
        coeffs = atom.expr.coeffs
        if not coeffs:
            constants.append(atom)
            continue
        group = None
        for name, _ in coeffs:
            other = owner.get(name)
            if other is group and other is not None:
                continue
            if other is None:
                if group is None:
                    group = [[], []]
                    groups.append(group)
                group[1].append(name)
                owner[name] = group
                continue
            if group is None:
                group = other
                continue
            # Merge the smaller group into the larger one.
            if len(other[1]) > len(group[1]):
                group, other = other, group
            group[0].extend(other[0])
            group[1].extend(other[1])
            for moved in other[1]:
                owner[moved] = group
            other[1] = None
        group[0].append(atom)
    out = [frozenset(group[0]) for group in groups if group[1] is not None]
    if constants:
        out.append(frozenset(constants))
    return out


class _Search:
    def __init__(self, cache: TheoryCache, node_limit: int):
        self.cache = cache
        self.nodes = node_limit
        self.saw_unknown = False
        self.model: Optional[ModelDict] = None

    def run(
        self,
        pending: List[BoolExpr],
        atoms: Set[Atom],
        bools: Dict[str, bool],
    ) -> bool:
        """Returns True when a satisfying leaf is found (model recorded)."""
        if self.nodes <= 0:
            self.saw_unknown = True
            return False
        self.nodes -= 1

        pending = list(pending)
        atoms = set(atoms)
        bools = dict(bools)
        disjunctions: List[Or] = []

        while pending:
            formula = pending.pop()
            if isinstance(formula, BoolConst):
                if not formula.value:
                    return False
            elif isinstance(formula, BoolLit):
                known = bools.get(formula.name)
                if known is None:
                    bools[formula.name] = formula.positive
                elif known != formula.positive:
                    return False
            elif isinstance(formula, Atom):
                if not_(formula) in atoms:
                    return False
                atoms.add(formula)
            elif isinstance(formula, And):
                pending.extend(formula.args)
            elif isinstance(formula, Or):
                disjunctions.append(formula)
            else:
                raise TypeError(f"not a boolean formula: {formula!r}")

        if not disjunctions:
            verdict, model = self.cache.check(frozenset(atoms))
            if verdict is theory.TheoryResult.SAT:
                full: ModelDict = dict(model or {})
                full.update(bools)
                self.model = full
                return True
            if verdict is theory.TheoryResult.UNKNOWN:
                self.saw_unknown = True
            return False

        # Split on the smallest disjunction first.
        disjunctions.sort(key=lambda d: len(d.args))
        first, rest = disjunctions[0], disjunctions[1:]
        for disjunct in first.args:
            if self.run(rest + [disjunct], atoms, bools):
                return True
        return False


def check_formulas(
    formulas: List[BoolExpr],
    cache: Optional[TheoryCache] = None,
    node_limit: int = 200000,
) -> Tuple[SatResult, Optional[ModelDict]]:
    """Decide the conjunction of ``formulas``.

    A returned model maps every boolean variable the search assigned and
    every integer variable the theory constrained; callers should treat
    missing variables as unconstrained.
    """
    search = _Search(cache or TheoryCache(), node_limit)
    if search.run(list(formulas), set(), {}):
        return SatResult.SAT, search.model
    if search.saw_unknown:
        return SatResult.UNKNOWN, None
    return SatResult.UNSAT, None
