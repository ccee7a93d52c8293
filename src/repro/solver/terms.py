"""Term language: linear integer expressions and boolean formulas.

Integer expressions are kept in a *canonical linear form* — a sorted
coefficient map plus a constant — so that nonlinear terms are unrepresentable
by construction. This mirrors the paper's encoding methodology (section 5.4):
branch conditions in the DNS engine reduce to linear comparisons over label
codes, lengths and flags, and restricting the term language to that fragment
is what keeps automated reasoning fast and predictable.

Boolean formulas are built by smart constructors that constant-fold and
normalise on the fly:

- comparisons normalise to two atom kinds over ``e ⋈ 0``: ``LE`` (``e <= 0``)
  and ``EQ`` (``e == 0``), with ``NE`` kept as a third kind because integer
  negation of ``EQ`` would otherwise blow up into disjunctions;
- negation is pushed to atoms immediately (formulas are always in NNF);
- ``and_``/``or_`` flatten, deduplicate and short-circuit on complements.

Every term is *hash-consed*: constructing a term returns the one live
instance with that structure, so term equality is object identity and
the solver's caches compare path conditions without walking them. Hashes
stay structural (see :data:`_TABLE`).
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple, Union


class NonLinearError(TypeError):
    """Raised when an operation would leave the linear fragment."""


# ---------------------------------------------------------------------------
# Hash-consing.
# ---------------------------------------------------------------------------

#: Structural key -> the one live term with that structure. Values are
#: weak, so a term nobody references drops out of the table. Each key is
#: the tuple whose hash is the term's hash: a structural value, not an
#: address, so set iteration order -- and with it the sat search order
#: and counterexample models -- is the same in every run.
_TABLE: "weakref.WeakValueDictionary[tuple, object]" = weakref.WeakValueDictionary()
#: Lookup fast path: the table's underlying key -> weakref dict.
_find = _TABLE.data.get
#: Serialises inserts, so two threads building the same term agree on it.
_INSERT_LOCK = threading.Lock()


def _lookup(key: tuple):
    """The live term stored under ``key``, or None."""
    ref = _find(key)
    return ref() if ref is not None else None


def _insert(key: tuple, term):
    """Publish a freshly built ``term`` under ``key`` and return the
    interned term: ``term`` itself, or the one another thread published
    first."""
    with _INSERT_LOCK:
        live = _lookup(key)
        if live is not None:
            return live
        _TABLE[key] = term
        return term


# ---------------------------------------------------------------------------
# Integer expressions: canonical linear combinations.
# ---------------------------------------------------------------------------


class IntExpr:
    """A linear integer expression ``sum(coeff_i * var_i) + const``.

    Immutable and interned; ``coeffs`` is a tuple of ``(var_name, coeff)``
    sorted by name with no zero coefficients.
    """

    __slots__ = ("coeffs", "const", "_hash", "__weakref__")

    def __new__(cls, coeffs: Tuple[Tuple[str, int], ...], const: int):
        key = (coeffs, const)
        self = _lookup(key)
        if self is None:
            self = object.__new__(cls)
            self.coeffs = coeffs
            self.const = const
            self._hash = hash(key)
            self = _insert(key, self)
        return self

    def __reduce__(self):
        return IntExpr, (self.coeffs, self.const)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    @property
    def is_var(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0][1] == 1 and self.const == 0

    @property
    def var_name(self) -> str:
        if not self.is_var:
            raise ValueError(f"{self} is not a plain variable")
        return self.coeffs[0][0]

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.coeffs:
            return str(self.const)
        parts = []
        for name, coeff in self.coeffs:
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        text = " + ".join(parts).replace("+ -", "- ")
        if self.const:
            text += f" + {self.const}" if self.const > 0 else f" - {-self.const}"
        return text


def iconst(value: int) -> IntExpr:
    """Integer literal."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"iconst expects an int, got {type(value).__name__}")
    return IntExpr((), value)


def ivar(name: str) -> IntExpr:
    """Symbolic integer constant (a fresh SMT variable)."""
    return IntExpr(((name, 1),), 0)


def _combine(a: IntExpr, b: IntExpr, sign: int) -> IntExpr:
    merged: Dict[str, int] = dict(a.coeffs)
    for name, coeff in b.coeffs:
        merged[name] = merged.get(name, 0) + sign * coeff
    coeffs = tuple(sorted((n, c) for n, c in merged.items() if c != 0))
    return IntExpr(coeffs, a.const + sign * b.const)


def _as_int_expr(value: Union[IntExpr, int]) -> IntExpr:
    if isinstance(value, IntExpr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not integer expressions")
    if isinstance(value, int):
        return iconst(value)
    raise TypeError(f"not an integer expression: {value!r}")


def iadd(a: Union[IntExpr, int], b: Union[IntExpr, int]) -> IntExpr:
    return _combine(_as_int_expr(a), _as_int_expr(b), 1)


def isub(a: Union[IntExpr, int], b: Union[IntExpr, int]) -> IntExpr:
    return _combine(_as_int_expr(a), _as_int_expr(b), -1)


def ineg(a: Union[IntExpr, int]) -> IntExpr:
    return isub(0, a)


def imul(a: Union[IntExpr, int], b: Union[IntExpr, int]) -> IntExpr:
    """Multiplication; at least one side must be constant (linearity)."""
    ea, eb = _as_int_expr(a), _as_int_expr(b)
    if not ea.is_const and not eb.is_const:
        raise NonLinearError(f"nonlinear product ({ea}) * ({eb})")
    if eb.is_const:
        ea, eb = eb, ea
    k = ea.const
    if k == 0:
        return iconst(0)
    coeffs = tuple((name, coeff * k) for name, coeff in eb.coeffs)
    return IntExpr(coeffs, eb.const * k)


# ---------------------------------------------------------------------------
# Boolean formulas (always in NNF).
# ---------------------------------------------------------------------------


class BoolExpr:
    """Base class for boolean formulas. All instances are immutable and
    interned."""

    __slots__ = ("__weakref__",)

    def __and__(self, other: "BoolExpr") -> "BoolExpr":
        return and_(self, other)

    def __or__(self, other: "BoolExpr") -> "BoolExpr":
        return or_(self, other)

    def __invert__(self) -> "BoolExpr":
        return not_(self)


class BoolConst(BoolExpr):
    __slots__ = ("value", "_hash")

    def __new__(cls, value: bool):
        key = ("bconst", value)
        self = _lookup(key)
        if self is None:
            self = object.__new__(cls)
            self.value = value
            self._hash = hash(key)
            self = _insert(key, self)
        return self

    def __reduce__(self):
        return BoolConst, (self.value,)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def btrue() -> BoolExpr:
    return TRUE


def bfalse() -> BoolExpr:
    return FALSE


def bool_const(value: bool) -> BoolExpr:
    return TRUE if value else FALSE


class BoolLit(BoolExpr):
    """A (possibly negated) boolean variable."""

    __slots__ = ("name", "positive", "_hash")

    def __new__(cls, name: str, positive: bool = True):
        key = ("blit", name, positive)
        self = _lookup(key)
        if self is None:
            self = object.__new__(cls)
            self.name = name
            self.positive = positive
            self._hash = hash(key)
            self = _insert(key, self)
        return self

    def __reduce__(self):
        return BoolLit, (self.name, self.positive)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.name if self.positive else f"!{self.name}"


def bvar(name: str) -> BoolExpr:
    """Symbolic boolean constant."""
    return BoolLit(name, True)


#: Atom kinds: expr <= 0, expr == 0, expr != 0.
LE, EQ, NE = "le", "eq", "ne"
_NEGATED_KIND = {EQ: NE, NE: EQ}


class Atom(BoolExpr):
    """A normalised linear atom ``expr <kind> 0``.

    ``_neg`` memoises :func:`not_` of the atom once it has been asked for.
    """

    __slots__ = ("kind", "expr", "_hash", "_neg")

    def __new__(cls, kind: str, expr: IntExpr):
        key = ("atom", kind, expr)
        self = _lookup(key)
        if self is None:
            self = object.__new__(cls)
            self.kind = kind
            self.expr = expr
            self._hash = hash(key)
            self._neg = None
            self = _insert(key, self)
        return self

    def __reduce__(self):
        return Atom, (self.kind, self.expr)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        op = {LE: "<=", EQ: "==", NE: "!="}[self.kind]
        return f"({self.expr} {op} 0)"


class NaryBool(BoolExpr):
    """Shared representation for conjunction/disjunction."""

    __slots__ = ("args", "_hash")
    symbol = "?"

    def __new__(cls, args: Tuple[BoolExpr, ...]):
        key = (cls.__name__, args)
        self = _lookup(key)
        if self is None:
            self = object.__new__(cls)
            self.args = args
            self._hash = hash(key)
            self = _insert(key, self)
        return self

    def __reduce__(self):
        return type(self), (self.args,)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "(" + f" {self.symbol} ".join(map(repr, self.args)) + ")"


class And(NaryBool):
    __slots__ = ()
    symbol = "&&"


class Or(NaryBool):
    __slots__ = ()
    symbol = "||"


def _normalize_atom(kind: str, expr: IntExpr) -> BoolExpr:
    """Fold constants and divide out the gcd."""
    if expr.is_const:
        value = expr.const
        result = {LE: value <= 0, EQ: value == 0, NE: value != 0}[kind]
        return bool_const(result)
    gcd = 0
    for _, coeff in expr.coeffs:
        gcd = math.gcd(gcd, abs(coeff))
    const = expr.const
    if gcd > 1:
        if kind == LE:
            # g*a + c <= 0  <=>  a <= floor(-c/g)  <=>  a - floor(-c/g) <= 0.
            # Python's // is floor division, which keeps this exact over ints.
            floor_bound = (-expr.const) // gcd
            expr = IntExpr(
                tuple((n, c // gcd) for n, c in expr.coeffs), -floor_bound
            )
        else:
            if expr.const % gcd != 0:
                # g*a + c == 0 has no integer solution.
                return bool_const(kind == NE)
            expr = IntExpr(
                tuple((n, c // gcd) for n, c in expr.coeffs), expr.const // gcd
            )
    if kind in (EQ, NE):
        # Canonical sign: first coefficient positive.
        if expr.coeffs[0][1] < 0:
            expr = IntExpr(
                tuple((n, -c) for n, c in expr.coeffs), -expr.const
            )
    return Atom(kind, expr)


def le(a: Union[IntExpr, int], b: Union[IntExpr, int]) -> BoolExpr:
    """a <= b"""
    return _normalize_atom(LE, isub(a, b))


def lt(a: Union[IntExpr, int], b: Union[IntExpr, int]) -> BoolExpr:
    """a < b (integers: a + 1 <= b)"""
    return _normalize_atom(LE, iadd(isub(a, b), 1))


def ge(a: Union[IntExpr, int], b: Union[IntExpr, int]) -> BoolExpr:
    return le(b, a)


def gt(a: Union[IntExpr, int], b: Union[IntExpr, int]) -> BoolExpr:
    return lt(b, a)


def eq(a: Union[IntExpr, int], b: Union[IntExpr, int]) -> BoolExpr:
    """a == b"""
    return _normalize_atom(EQ, isub(a, b))


def ne(a: Union[IntExpr, int], b: Union[IntExpr, int]) -> BoolExpr:
    """a != b"""
    return _normalize_atom(NE, isub(a, b))


def beq(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    """Boolean equivalence, expanded into NNF."""
    return or_(and_(a, b), and_(not_(a), not_(b)))


def not_(formula: BoolExpr) -> BoolExpr:
    """Negation, pushed down so results stay in NNF."""
    if isinstance(formula, Atom):
        negated = formula._neg
        if negated is None:
            if formula.kind == LE:
                # not(e <= 0)  <=>  -e + 1 <= 0
                negated = _normalize_atom(LE, iadd(ineg(formula.expr), 1))
            else:
                negated = Atom(_NEGATED_KIND[formula.kind], formula.expr)
            formula._neg = negated
        return negated
    if isinstance(formula, BoolConst):
        return bool_const(not formula.value)
    if isinstance(formula, BoolLit):
        return BoolLit(formula.name, not formula.positive)
    if isinstance(formula, And):
        return or_(*[not_(arg) for arg in formula.args])
    if isinstance(formula, Or):
        return and_(*[not_(arg) for arg in formula.args])
    raise TypeError(f"not a boolean formula: {formula!r}")


def _flatten(cls, formulas: Iterable[BoolExpr], absorbing: BoolConst, neutral: BoolConst):
    seen = []
    seen_set = set()
    for formula in formulas:
        if not isinstance(formula, BoolExpr):
            raise TypeError(f"not a boolean formula: {formula!r}")
        if formula is absorbing:
            return None  # caller returns absorbing
        if formula is neutral:
            continue
        args = formula.args if isinstance(formula, cls) else (formula,)
        for arg in args:
            if arg is absorbing:
                return None
            if arg is neutral or arg in seen_set:
                continue
            seen.append(arg)
            seen_set.add(arg)
    # Complement detection: p and !p.
    for arg in seen:
        if isinstance(arg, (BoolLit, Atom)) and not_(arg) in seen_set:
            return None
    return seen


def and_(*formulas: BoolExpr) -> BoolExpr:
    args = _flatten(And, formulas, FALSE, TRUE)
    if args is None:
        return FALSE
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return And(tuple(args))


def or_(*formulas: BoolExpr) -> BoolExpr:
    args = _flatten(Or, formulas, TRUE, FALSE)
    if args is None:
        return TRUE
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return Or(tuple(args))


def implies(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    return or_(not_(a), b)


# ---------------------------------------------------------------------------
# Traversal, substitution, evaluation.
# ---------------------------------------------------------------------------

Expr = Union[IntExpr, BoolExpr]


def free_vars(expr: Expr) -> FrozenSet[str]:
    """Names of all symbolic constants (int and bool) in ``expr``."""
    if isinstance(expr, IntExpr):
        return frozenset(name for name, _ in expr.coeffs)
    if isinstance(expr, BoolConst):
        return frozenset()
    if isinstance(expr, BoolLit):
        return frozenset((expr.name,))
    if isinstance(expr, Atom):
        return free_vars(expr.expr)
    if isinstance(expr, NaryBool):
        out: FrozenSet[str] = frozenset()
        for arg in expr.args:
            out |= free_vars(arg)
        return out
    raise TypeError(f"not an expression: {expr!r}")


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace symbolic constants by expressions.

    Int variables map to :class:`IntExpr` (or plain ints); bool variables map
    to :class:`BoolExpr`. Used when instantiating summary specifications at a
    call site (section 5.3's naming-convention association).
    """
    if isinstance(expr, IntExpr):
        result = iconst(expr.const)
        for name, coeff in expr.coeffs:
            replacement = mapping.get(name)
            if replacement is None:
                replacement = ivar(name)
            elif isinstance(replacement, int) and not isinstance(replacement, bool):
                replacement = iconst(replacement)
            elif not isinstance(replacement, IntExpr):
                raise TypeError(f"int variable {name} mapped to non-int {replacement!r}")
            result = iadd(result, imul(coeff, replacement))
        return result
    if isinstance(expr, BoolConst):
        return expr
    if isinstance(expr, BoolLit):
        replacement = mapping.get(expr.name)
        if replacement is None:
            return expr
        if isinstance(replacement, bool):
            replacement = bool_const(replacement)
        if not isinstance(replacement, BoolExpr):
            raise TypeError(f"bool variable {expr.name} mapped to non-bool {replacement!r}")
        return replacement if expr.positive else not_(replacement)
    if isinstance(expr, Atom):
        return _normalize_atom(expr.kind, substitute(expr.expr, mapping))
    if isinstance(expr, And):
        return and_(*[substitute(arg, mapping) for arg in expr.args])
    if isinstance(expr, Or):
        return or_(*[substitute(arg, mapping) for arg in expr.args])
    raise TypeError(f"not an expression: {expr!r}")


def eval_expr(expr: Expr, model: Mapping[str, Union[int, bool]]) -> Union[int, bool]:
    """Evaluate under a full model; raises KeyError on missing variables."""
    if isinstance(expr, IntExpr):
        total = expr.const
        for name, coeff in expr.coeffs:
            total += coeff * int(model[name])
        return total
    if isinstance(expr, BoolConst):
        return expr.value
    if isinstance(expr, BoolLit):
        value = bool(model[expr.name])
        return value if expr.positive else not value
    if isinstance(expr, Atom):
        value = eval_expr(expr.expr, model)
        return {LE: value <= 0, EQ: value == 0, NE: value != 0}[expr.kind]
    if isinstance(expr, And):
        return all(eval_expr(arg, model) for arg in expr.args)
    if isinstance(expr, Or):
        return any(eval_expr(arg, model) for arg in expr.args)
    raise TypeError(f"not an expression: {expr!r}")
