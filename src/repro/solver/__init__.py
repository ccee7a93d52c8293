"""SMT-lite solver for linear integer arithmetic with boolean structure.

The paper's verifier invokes Z3 on branch conditions that are deliberately
kept within *simple linear integer arithmetic* (sections 4.2 and 6.3): label
codes, list lengths and flags compared with constants or each other. This
subpackage implements a decision procedure that is sound and complete for
exactly that fragment and can produce models — which is everything DNS-V
needs from an SMT solver (satisfiability pruning during symbolic execution
and counterexample generation).

Layout:

- :mod:`repro.solver.terms` — hash-consable term language: linear integer
  expressions, boolean formulas, substitution and evaluation.
- :mod:`repro.solver.theory` — conjunction-level decision procedure for
  linear integer constraints (Gaussian elimination, bound propagation,
  branch-and-bound model search, Fourier–Motzkin fallback).
- :mod:`repro.solver.sat` — DPLL-style search over the boolean skeleton with
  lazy theory checks.
- :mod:`repro.solver.pathcond` — persistent, prefix-sharing path
  conditions (:class:`PathCondition`) and their memoised cache keys.
- :mod:`repro.solver.solver` — the :class:`Solver` facade: one check of a
  path condition plus extra formulas, result caching, and models.
"""

from repro.solver.terms import (
    IntExpr,
    BoolExpr,
    iconst,
    ivar,
    iadd,
    isub,
    ineg,
    imul,
    btrue,
    bfalse,
    bvar,
    bool_const,
    and_,
    or_,
    not_,
    implies,
    eq,
    ne,
    lt,
    le,
    gt,
    ge,
    beq,
    free_vars,
    substitute,
    eval_expr,
    NonLinearError,
)
from repro.solver.pathcond import PathCondition, TRUE_PATH
from repro.solver.solver import Solver, SolveResult, Model

__all__ = [
    "IntExpr",
    "BoolExpr",
    "iconst",
    "ivar",
    "iadd",
    "isub",
    "ineg",
    "imul",
    "btrue",
    "bfalse",
    "bvar",
    "bool_const",
    "and_",
    "or_",
    "not_",
    "implies",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "beq",
    "free_vars",
    "substitute",
    "eval_expr",
    "NonLinearError",
    "PathCondition",
    "TRUE_PATH",
    "Solver",
    "SolveResult",
    "Model",
]
