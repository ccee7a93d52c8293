"""Abstract domains for the panic-pruning analysis.

Two abstractions cover the two guard families the frontend emits
(section 4.1's panic blocks):

- **Intervals / difference bounds** discharge index guards. Plain
  constant intervals cannot prove the hot case — ``name[i]`` inside
  ``is_prefix`` needs ``i < len(prefix) <= len(name)`` — so the numeric
  half is a tiny difference-bound matrix (:class:`DiffBounds`): closed
  constraints ``u - v <= c`` over deterministically named symbolic
  variables, with a distinguished zero variable anchoring constant
  bounds. :func:`interval_of` projects any variable's plain interval
  back out of it.
- **Nullness** (``null``/``nonnull``/``maybe``) discharges nil guards:
  ``newobject``/``list.new`` results are born non-null, and an
  ``x is None`` branch refines the value *and* the local slot it was
  loaded from, so ``while child is not None:`` bodies see a non-null
  ``child``.

:class:`GuardDomain` is the product domain the pruning pass runs
through :mod:`repro.analysis.dataflow`: an environment of abstract
values (registers + alloca slots), the difference bounds, and a list
*epoch* that versions ``list.len`` variables across mutations.

Every fresh abstract name is derived from a stable program point — a
destination register, a ``block:index`` call site, a ``(block, slot)``
join point — never from visit counts, so fixpoints are deterministic
and re-runs produce identical IR rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.dataflow import Domain
from repro.ir import (
    Alloca,
    BinOp,
    Call,
    CondBr,
    ConstBool,
    ConstInt,
    ConstNull,
    ElidedGuardBr,
    GEP,
    ICmp,
    Load,
    PointerType,
    Register,
    Store,
)
from repro.ir.function import BasicBlock, Function
from repro.ir.types import BoolType, IntType

# ---------------------------------------------------------------------------
# Nullness lattice
# ---------------------------------------------------------------------------

NULL = "null"
NONNULL = "nonnull"
MAYBE = "maybe"


def join_nullness(a: str, b: str) -> str:
    return a if a == b else MAYBE


# ---------------------------------------------------------------------------
# Plain intervals (projection + golden tests)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` bounds mean unbounded."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, other: "Interval") -> "Interval":
        """Keep only the bounds ``other`` did not loosen."""
        lo = self.lo if (self.lo is not None and other.lo is not None
                         and other.lo >= self.lo) else None
        hi = self.hi if (self.hi is not None and other.hi is not None
                         and other.hi <= self.hi) else None
        return Interval(lo, hi)

    def __str__(self):
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


# ---------------------------------------------------------------------------
# Difference bounds: closed constraint sets  u - v <= c
# ---------------------------------------------------------------------------

ZERO = ""  # the distinguished zero variable anchoring constant bounds


class DiffBounds:
    """A small difference-bound matrix, stored by rows.

    ``bound(u, v)`` is the tightest known ``c`` with ``u - v <= c`` (None
    when unconstrained). The facts live in rows ``{u: {v: c}}``; a row
    with no facts is never kept, so two matrices are equal exactly when
    they hold the same facts.

    What stays closed:

    - :meth:`add` inserts ``u - v <= c`` and closes through the new edge
      only: every ``x`` with a bound on ``x - u`` (and ``u`` itself) gets
      ``x - y <= (x - u) + c + (v - y)`` for every ``y`` in ``v``'s row
      (and ``v`` itself). On a closed matrix that is the full shortest-
      path closure, at O(in(u) * out(v)) plus one scan of the row keys
      for ``u``'s predecessors. False means a negative cycle showed up —
      callers treat the carrying edge as unreachable, and the matrix is
      then left part-way through the closure.
    - :meth:`join` keeps the facts present on both sides at the looser
      bound; the pointwise max of closed matrices is closed.
    - :meth:`kill` forgets a variable; a closed matrix stays closed.
    - Widening (:meth:`unchanged_since`) *drops* facts and does not
      re-close, so after it the matrix may be unclosed until the next
      ``add`` through the affected edges.
    """

    __slots__ = ("_rows",)

    def __init__(self, bounds: Optional[Dict[Tuple[str, str], int]] = None):
        rows: Dict[str, Dict[str, int]] = {}
        if bounds:
            for (u, v), c in bounds.items():
                rows.setdefault(u, {})[v] = c
        self._rows = rows

    @classmethod
    def _of_rows(cls, rows: Dict[str, Dict[str, int]]) -> "DiffBounds":
        """Wrap ``rows`` (no empty row, owned by the result) as a matrix."""
        out = cls.__new__(cls)
        out._rows = rows
        return out

    def copy(self) -> "DiffBounds":
        return DiffBounds._of_rows(
            {u: row.copy() for u, row in self._rows.items()}
        )

    def items(self):
        """Every fact as ``((u, v), c)``."""
        return [((u, v), c) for u, row in self._rows.items()
                for v, c in row.items()]

    def __eq__(self, other):
        return isinstance(other, DiffBounds) and self._rows == other._rows

    def __repr__(self):
        inner = ", ".join(
            f"{u or '0'}-{v or '0'}<={c}" for (u, v), c in sorted(self.items())
        )
        return f"DiffBounds({inner})"

    def vars(self) -> set:
        names = set(self._rows)
        for row in self._rows.values():
            names.update(row)
        names.discard(ZERO)
        return names

    def bound(self, u: str, v: str) -> Optional[int]:
        if u == v:
            return 0
        row = self._rows.get(u)
        return None if row is None else row.get(v)

    def entails(self, u: str, v: str, c: int) -> bool:
        """Is ``u - v <= c`` implied?"""
        if u == v:
            return c >= 0
        row = self._rows.get(u)
        known = None if row is None else row.get(v)
        return known is not None and known <= c

    def add(self, u: str, v: str, c: int) -> bool:
        """Record ``u - v <= c``; False means the system became infeasible."""
        if u == v:
            return c >= 0
        rows = self._rows
        row_v = rows.get(v)
        if row_v is not None:
            back = row_v.get(u)
            if back is not None and back + c < 0:
                return False
        row_u = rows.get(u)
        if row_u is None:
            row_u = rows[u] = {}
        else:
            old = row_u.get(v)
            if old is not None and old <= c:
                return True
        row_u[v] = c
        # Closure through the new edge: x -> u -> v -> y. Neither the
        # x -> u bounds nor v's row can tighten while this runs unless a
        # negative cycle exists, which the check above already refused.
        sources = [(u, row_u, c)]
        for x, row_x in rows.items():
            xu = row_x.get(u)
            if xu is not None:
                sources.append((x, row_x, xu + c))
        targets = [(v, 0)]
        if row_v is not None:
            targets.extend(row_v.items())
        for x, row_x, xuv in sources:
            for y, vy in targets:
                if x == y:
                    continue
                through = xuv + vy
                cur = row_x.get(y)
                if cur is None or through < cur:
                    row_x[y] = through
                    row_y = rows.get(y)
                    if row_y is not None:
                        rev = row_y.get(x)
                        if rev is not None and rev + through < 0:
                            return False
        return True

    def kill(self, var: str) -> None:
        """Forget every constraint involving ``var`` (its program value is
        being redefined)."""
        if var == ZERO:
            return
        rows = self._rows
        rows.pop(var, None)
        emptied = []
        for u, row in rows.items():
            if row.pop(var, None) is not None and not row:
                emptied.append(u)
        for u in emptied:
            del rows[u]

    def join(self, other: "DiffBounds") -> "DiffBounds":
        """Least upper bound: constraints present in both, at the looser
        bound. The pointwise max of closed DBMs is closed."""
        out: Dict[str, Dict[str, int]] = {}
        other_rows = other._rows
        for u, row in self._rows.items():
            other_row = other_rows.get(u)
            if other_row is None:
                continue
            if row == other_row:
                out[u] = row.copy()
                continue
            merged = {}
            for v, c in row.items():
                oc = other_row.get(v)
                if oc is not None:
                    merged[v] = c if c >= oc else oc
            if merged:
                out[u] = merged
        return DiffBounds._of_rows(out)

    def unchanged_since(self, old: "DiffBounds") -> "DiffBounds":
        """The widening step: only the facts whose bound ``old`` already
        had. Every loosened or new fact is dropped, and the result is not
        re-closed."""
        out: Dict[str, Dict[str, int]] = {}
        old_rows = old._rows
        for u, row in self._rows.items():
            old_row = old_rows.get(u)
            if old_row is None:
                continue
            kept = {v: c for v, c in row.items() if old_row.get(v) == c}
            if kept:
                out[u] = kept
        return DiffBounds._of_rows(out)

    def interval_of(self, var: str) -> Interval:
        """The plain interval of ``var`` relative to the zero variable."""
        hi = self.bound(var, ZERO)
        lo = self.bound(ZERO, var)
        return Interval(None if lo is None else -lo, hi)


def _projected(state: "GState", name: str):
    """The abstract value of a register or slot; a slot-address register
    (the alloca result) projects through to the slot's content."""
    value = state.regs.get(name, state.slots.get(name))
    if isinstance(value, SlotAddr):
        value = state.slots.get(value.slot)
    return value


def interval_of(state: "GState", name: str) -> Interval:
    """Project the interval of a register or slot out of a guard-domain
    state (golden tests and diagnostics)."""
    value = _projected(state, name)
    if isinstance(value, Num):
        base = state.facts.interval_of(value.var) if value.var else Interval(0, 0)
        lo = None if base.lo is None else base.lo + value.off
        hi = None if base.hi is None else base.hi + value.off
        return Interval(lo, hi)
    return Interval()


def nullness_of(state: "GState", name: str) -> str:
    """Project the nullness of a register or slot (golden tests)."""
    value = _projected(state, name)
    if isinstance(value, Ptr):
        return value.null
    return MAYBE


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    """``var + off``; the empty var is the constant anchor (value = off)."""

    var: str
    off: int


@dataclass(frozen=True)
class Ptr:
    """An abstract pointer: identity ``pid``, nullness, and the alloca
    slot it currently also resides in (``origin``) for refinement
    write-back."""

    pid: str
    null: str
    origin: Optional[str] = None


@dataclass(frozen=True)
class SlotAddr:
    slot: str


@dataclass(frozen=True)
class Bool:
    """A boolean: a known constant, or a refinable test. ``weak`` limits
    which branch edge may refine with the test after a join mixed it
    with a constant ("" = both, "true"/"false" = that edge only).

    ``carry`` rides the short-circuit join: when a symbolic test is
    joined with a constant, the difference facts that held on the
    symbolic side but not the constant side would otherwise be lost —
    yet on the one edge the constant cannot reach, control *must* have
    come through the symbolic side, so those facts hold there. They are
    re-applied on that edge, but only while the branch sits in the same
    block as the join (``carry_at``): within a straight-line block no
    join variable is renamed and frontend registers are SSA-fresh, so
    the carried constraints still describe live values."""

    val: Optional[bool] = None
    test: Optional[tuple] = None
    weak: str = ""
    carry: tuple = ()
    carry_at: str = ""


@dataclass(frozen=True)
class Unknown:
    """An untracked value named after its defining instruction; coerces
    to a numeric or pointer view on demand."""

    uid: str


_NULL_CONST = object()  # marker for the ConstNull operand

_NEG_PRED = {"slt": "sge", "sle": "sgt", "sgt": "sle", "sge": "slt",
             "eq": "ne", "ne": "eq"}


def _negate_bool(b: Bool) -> Bool:
    if b.val is not None:
        return Bool(not b.val)
    if b.test is None:
        return Bool()
    kind = b.test[0]
    # Negation flips which edge is the weak one; the carry flips with it
    # (it still marks "control came through the symbolic side").
    weak = {"true": "false", "false": "true", "": ""}[b.weak]
    if kind == "icmp":
        _, pred, l, r = b.test
        return Bool(None, ("icmp", _NEG_PRED[pred], l, r), weak,
                    b.carry, b.carry_at)
    if kind == "nil":
        _, tv, pred = b.test
        return Bool(None, ("nil", tv, _NEG_PRED[pred]), weak,
                    b.carry, b.carry_at)
    if kind == "summary":
        _, true_facts, false_facts = b.test
        return Bool(None, ("summary", false_facts, true_facts), weak,
                    b.carry, b.carry_at)
    if kind == "and":
        return Bool(None, ("or", _neg_test(b.test[1]), _neg_test(b.test[2])),
                    weak, b.carry, b.carry_at)
    if kind == "or":
        return Bool(None, ("and", _neg_test(b.test[1]), _neg_test(b.test[2])),
                    weak, b.carry, b.carry_at)
    return Bool()


def _neg_test(test: tuple) -> tuple:
    return _negate_bool(Bool(None, test)).test


def _durable_var(var: str) -> bool:
    """Carry only facts over join/length/param variables (and the zero
    anchor): they name loop-invariant or canonicalized values, which is
    what the short-circuit joins actually lose — register-named facts
    die with their block anyway and would crowd the cap."""
    return var == ZERO or var.startswith(("J!", "L!", "P!"))


def _dropped_facts(sym: DiffBounds, const: DiffBounds) -> tuple:
    """Difference facts holding on the symbolic side of a short-circuit
    join but not on the constant side — the carry a :class:`Bool` rides.
    Capped so a pathological join cannot blow up the value."""
    dropped = [
        (u, v, c)
        for (u, v), c in sym.items()
        if _durable_var(u) and _durable_var(v) and not const.entails(u, v, c)
    ]
    dropped.sort()
    return tuple(dropped[:64])


def _carry_closure(state: "GState", carry: tuple) -> DiffBounds:
    """The side's facts with its own carry conjoined (what provably holds
    when control came through that side's symbolic provenance)."""
    if not carry:
        return state.facts
    facts = state.facts.copy()
    for u, v, c in carry:
        facts.add(u, v, c)
    return facts


def _subst_facts(facts: tuple, subst: Dict[str, Tuple[str, int]]) -> tuple:
    """Substitute summary tokens with caller-side ``(var, off)`` views.

    A token fact ``u - v <= c`` with caller views ``u = u_var + u_off``
    and ``v = v_var + v_off`` becomes ``u_var - v_var <= c - u_off +
    v_off``. Facts mentioning a token the call site could not bind (an
    argument outside the abstraction) are dropped, not approximated.
    """
    out = []
    for u_tok, v_tok, c in facts:
        u = subst.get(u_tok)
        v = subst.get(v_tok)
        if u is None or v is None:
            continue
        (u_var, u_off), (v_var, v_off) = u, v
        out.append((u_var, v_var, c - u_off + v_off))
    return tuple(out)


# ---------------------------------------------------------------------------
# The product state
# ---------------------------------------------------------------------------


class GState:
    """Registers + slots -> abstract values, difference bounds, and the
    list epoch. ``at`` is the block label the state currently describes
    (names join-point variables; not part of equality)."""

    __slots__ = ("regs", "slots", "facts", "epoch", "at")

    def __init__(self, regs=None, slots=None, facts=None, epoch="init", at=""):
        self.regs: Dict[str, object] = regs if regs is not None else {}
        self.slots: Dict[str, object] = slots if slots is not None else {}
        self.facts: DiffBounds = facts if facts is not None else DiffBounds()
        self.epoch = epoch
        self.at = at

    def copy(self) -> "GState":
        return GState(dict(self.regs), dict(self.slots), self.facts.copy(),
                      self.epoch, self.at)

    def same(self, other: "GState") -> bool:
        return (
            self.regs == other.regs
            and self.slots == other.slots
            and self.facts == other.facts
            and self.epoch == other.epoch
        )


# ---------------------------------------------------------------------------
# The domain
# ---------------------------------------------------------------------------


class GuardDomain(Domain):
    """The panic-guard analysis: enough arithmetic to decide bounds
    guards, enough heap discipline to decide nil guards, and nothing
    else. Everything outside the abstraction collapses to
    :class:`Unknown` — the analysis only ever *prunes* on definite
    proofs, so imprecision costs queries, never soundness."""

    def __init__(self, cfg=None, summaries=None):
        #: Optional CFG: when present, numeric slot values are renamed to
        #: canonical per-(join point, slot) variables on edges into
        #: multi-predecessor blocks, so every fixpoint iteration (and both
        #: sides of a merge) constrain the *same* variable instead of
        #: minting a fresh one per visit — the difference between proving
        #: ``i < len(prefix)`` inside a loop body and losing it.
        self.cfg = cfg
        #: Optional ``{name: FunctionSummary}`` table (see
        #: :mod:`repro.analysis.interproc`). When a call site's callee has
        #: a summary, the transfer applies it instead of havocking: a
        #: pure callee keeps the list epoch, and the summary's token
        #: facts are substituted into the caller's difference bounds.
        self.summaries = summaries or {}

    # -- lattice ------------------------------------------------------------

    def entry_state(self, function: Function) -> GState:
        state = GState(at=function.entry_label or "")
        for name, ty in function.params:
            if isinstance(ty, IntType):
                state.regs[name] = Num(f"P!{name}", 0)
            elif isinstance(ty, PointerType):
                state.regs[name] = Ptr(f"P!{name}", MAYBE, None)
            elif isinstance(ty, BoolType):
                state.regs[name] = Bool()
            else:
                state.regs[name] = Unknown(f"P!{name}")
        return state

    def copy(self, state: GState) -> GState:
        return state.copy()

    def equal(self, a: GState, b: GState) -> bool:
        return a.same(b)

    def join(self, a: GState, b: GState) -> GState:
        label = a.at or b.at
        facts = a.facts.join(b.facts)
        out = GState({}, {}, facts, a.epoch, label)
        if a.epoch != b.epoch:
            out.epoch = f"E!{label}"
        for name in a.regs.keys() & b.regs.keys():
            va, vb = a.regs[name], b.regs[name]
            if va is vb:
                # Most registers reach a join untouched on both sides.
                out.regs[name] = va
                continue
            merged = self._join_reg(va, vb, a, b, label)
            if merged is not None:
                out.regs[name] = merged
        for slot in a.slots.keys() & b.slots.keys():
            va, vb = a.slots[slot], b.slots[slot]
            if va is vb:
                out.slots[slot] = va
                continue
            merged = self._join_slot(out, a, b, slot, va, vb, label)
            if merged is not None:
                out.slots[slot] = merged
        return out

    def widen(self, old: GState, new: GState) -> GState:
        j = self.join(old, new)
        j.facts = j.facts.unchanged_since(old.facts)
        return j

    def _join_reg(self, va, vb, a: GState, b: GState, label: str):
        if va == vb:
            return va
        if isinstance(va, Ptr) and isinstance(vb, Ptr) and va.pid == vb.pid:
            return Ptr(va.pid, join_nullness(va.null, vb.null),
                       va.origin if va.origin == vb.origin else None)
        if isinstance(va, Bool) and isinstance(vb, Bool):
            return self._join_bool(va, vb, a, b, label)
        return None  # dominance makes a post-join read impossible; drop

    def _join_slot(self, out: GState, a: GState, b: GState, slot: str,
                   va, vb, label: str):
        if va == vb:
            return va
        ptrish_a = isinstance(va, (Ptr, Unknown))
        ptrish_b = isinstance(vb, (Ptr, Unknown))
        if isinstance(va, Ptr) and isinstance(vb, Ptr) and va.pid == vb.pid:
            return Ptr(va.pid, join_nullness(va.null, vb.null), slot)
        if (isinstance(va, Ptr) or isinstance(vb, Ptr)) and ptrish_a and ptrish_b:
            null_a = va.null if isinstance(va, Ptr) else MAYBE
            null_b = vb.null if isinstance(vb, Ptr) else MAYBE
            return Ptr(f"J!{label}!{slot}", join_nullness(null_a, null_b), slot)
        if isinstance(va, Bool) and isinstance(vb, Bool):
            return self._join_bool(va, vb, a, b, label)
        na = self._as_num(va)
        nb = self._as_num(vb)
        if na is not None and nb is not None:
            return self._hull(out, a, b, slot, na, nb, label)
        return None

    def _join_bool(self, va: Bool, vb: Bool, sa: GState, sb: GState,
                   label: str) -> Bool:
        if va == vb:
            return va
        if va.val is not None and vb.val is not None:
            return Bool()  # True vs False
        if va.val is not None:
            va, vb = vb, va  # va symbolic, vb constant (or both symbolic)
            sa, sb = sb, sa
        if vb.val is None:
            # Two different symbolic tests: same test, different weakness.
            if va.test is not None and va.test == vb.test:
                carry, carry_at = self._merge_carries(va, vb, sa, sb, label)
                if va.weak == "" or va.weak == vb.weak:
                    return Bool(None, va.test,
                                vb.weak if va.weak == "" else va.weak,
                                carry, carry_at)
                if vb.weak == "":
                    return Bool(None, va.test, va.weak, carry, carry_at)
            return Bool()
        if va.test is None:
            return Bool()
        # Constant ⊔ test: the test stays usable only on the edge the
        # constant cannot reach — and on that edge control *must* have
        # come through the symbolic side, so the difference facts the
        # join is about to drop still hold there. Carry them (plus any
        # still-valid carry the symbolic side already rode).
        need = "true" if vb.val is False else "false"
        if va.weak in ("", need):
            base = (
                _carry_closure(sa, va.carry)
                if va.carry and va.carry_at == label else sa.facts
            )
            return Bool(None, va.test, need,
                        _dropped_facts(base, sb.facts), label)
        return Bool()

    def _merge_carries(self, va: Bool, vb: Bool, sa: GState, sb: GState,
                       label: str):
        """Sound carry for a same-test join: a fact survives only if it is
        entailed on *both* sides' symbolic provenance — each side's own
        facts plus its own carry — and only while every contributing carry
        was minted at this very join block (its variables still describe
        current-iteration values there)."""
        if not va.carry and not vb.carry:
            return (), ""
        minted_at = {x.carry_at for x in (va, vb) if x.carry}
        if minted_at != {label}:
            return (), ""
        fa = _carry_closure(sa, va.carry)
        fb = _carry_closure(sb, vb.carry)
        candidates = set(va.carry) | set(vb.carry)
        carry = tuple(sorted(
            fact for fact in candidates
            if fa.entails(*fact) and fb.entails(*fact)
        ))
        return carry, (label if carry else "")

    def _hull(self, out: GState, a: GState, b: GState, slot: str,
              na: Num, nb: Num, label: str) -> Num:
        """Join two numeric slot values into a join variable whose bounds
        are the convex hull of both sides'.

        The join variable's name is stable across fixpoint iterations, so
        on a loop-carried slot one side is typically ``J + k`` for the
        *previous* round's ``J`` — derive the new bounds from the side
        states first, and only then retire the old variable.
        """
        jvar = f"J!{label}!{slot}"
        derived = []
        partners = (a.facts.vars() | b.facts.vars() | {ZERO}) - {jvar}
        for w in partners:
            up_a = a.facts.bound(na.var, w)
            up_b = b.facts.bound(nb.var, w)
            if up_a is not None and up_b is not None:
                derived.append((jvar, w, max(up_a + na.off, up_b + nb.off)))
            lo_a = a.facts.bound(w, na.var)
            lo_b = b.facts.bound(w, nb.var)
            if lo_a is not None and lo_b is not None:
                derived.append((w, jvar, max(lo_a - na.off, lo_b - nb.off)))
        if na.var == nb.var and na.var != jvar:
            # Same live base variable: keep the exact relation to it too.
            lo, hi = min(na.off, nb.off), max(na.off, nb.off)
            derived.append((jvar, na.var, hi))
            derived.append((na.var, jvar, -lo))
        out.facts.kill(jvar)
        for u, v, c in derived:
            out.facts.add(u, v, c)
        return Num(jvar, 0)

    # -- operand evaluation -------------------------------------------------

    def _eval(self, state: GState, operand):
        if isinstance(operand, Register):
            return state.regs.get(operand.name, Unknown(f"?{operand.name}"))
        if isinstance(operand, ConstInt):
            return Num(ZERO, operand.value)
        if isinstance(operand, ConstBool):
            return Bool(operand.value)
        if isinstance(operand, ConstNull):
            return _NULL_CONST
        return Unknown("?operand")

    def _as_num(self, value) -> Optional[Num]:
        if isinstance(value, Num):
            return value
        if isinstance(value, Unknown):
            return Num(value.uid, 0)
        return None

    def _as_ptr(self, value) -> Optional[Ptr]:
        if isinstance(value, Ptr):
            return value
        if isinstance(value, Unknown):
            return Ptr(value.uid, MAYBE, None)
        return None

    def _set_unknown(self, state: GState, dest: Register) -> None:
        state.facts.kill(dest.name)
        state.regs[dest.name] = Unknown(dest.name)

    # -- transfer -----------------------------------------------------------

    def transfer(self, state: GState, insn, label: str, index: int) -> GState:
        if isinstance(insn, Alloca):
            state.regs[insn.dest.name] = SlotAddr(insn.dest.name)
        elif isinstance(insn, Store):
            target = self._eval(state, insn.ptr)
            if isinstance(target, SlotAddr):
                value = self._eval(state, insn.value)
                if isinstance(value, Ptr):
                    value = replace(value, origin=target.slot)
                if value is _NULL_CONST:
                    value = Ptr(f"N!{target.slot}", NULL, target.slot)
                state.slots[target.slot] = value
            # Heap stores never touch slots, lengths, or tracked facts.
        elif isinstance(insn, Load):
            source = self._eval(state, insn.ptr)
            if isinstance(source, SlotAddr):
                value = state.slots.get(source.slot)
                if value is None:
                    self._set_unknown(state, insn.dest)
                else:
                    state.regs[insn.dest.name] = value
            else:
                self._set_unknown(state, insn.dest)
        elif isinstance(insn, BinOp):
            self._transfer_binop(state, insn)
        elif isinstance(insn, ICmp):
            state.regs[insn.dest.name] = self._transfer_icmp(state, insn)
        elif isinstance(insn, GEP):
            state.regs[insn.dest.name] = Ptr(insn.dest.name, NONNULL, None)
        elif isinstance(insn, Call):
            self._transfer_call(state, insn, label, index)
        return state

    def _transfer_binop(self, state: GState, insn: BinOp) -> None:
        lhs = self._eval(state, insn.lhs)
        rhs = self._eval(state, insn.rhs)
        if insn.op in ("add", "sub", "mul"):
            nl, nr = self._as_num(lhs), self._as_num(rhs)
            result = None
            if nl is not None and nr is not None:
                if insn.op == "add":
                    if nr.var == ZERO:
                        result = Num(nl.var, nl.off + nr.off)
                    elif nl.var == ZERO:
                        result = Num(nr.var, nr.off + nl.off)
                elif insn.op == "sub":
                    if nr.var == ZERO:
                        result = Num(nl.var, nl.off - nr.off)
                    elif nl.var == nr.var:
                        result = Num(ZERO, nl.off - nr.off)
                elif nl.var == ZERO and nr.var == ZERO:
                    result = Num(ZERO, nl.off * nr.off)
            if result is None:
                self._set_unknown(state, insn.dest)
            else:
                state.regs[insn.dest.name] = result
            return
        # Boolean connectives.
        bl = lhs if isinstance(lhs, Bool) else Bool()
        br = rhs if isinstance(rhs, Bool) else Bool()
        state.regs[insn.dest.name] = self._bool_binop(insn.op, bl, br)

    def _bool_binop(self, op: str, bl: Bool, br: Bool) -> Bool:
        if op == "xor":
            # The frontend uses xor-with-true for `not`.
            if br == Bool(True):
                return _negate_bool(bl)
            if bl == Bool(True):
                return _negate_bool(br)
            if br == Bool(False):
                return bl
            if bl == Bool(False):
                return br
            return Bool()
        if op == "and":
            if bl.val is False or br.val is False:
                return Bool(False)
            if bl.val is True:
                return br
            if br.val is True:
                return bl
            if bl.test is not None and br.test is not None \
                    and bl.weak in ("", "true") and br.weak in ("", "true"):
                return Bool(None, ("and", bl.test, br.test), "true")
            return Bool()
        if op == "or":
            if bl.val is True or br.val is True:
                return Bool(True)
            if bl.val is False:
                return br
            if br.val is False:
                return bl
            if bl.test is not None and br.test is not None \
                    and bl.weak in ("", "false") and br.weak in ("", "false"):
                return Bool(None, ("or", bl.test, br.test), "false")
            return Bool()
        return Bool()

    def _transfer_icmp(self, state: GState, insn: ICmp) -> Bool:
        lhs = self._eval(state, insn.lhs)
        rhs = self._eval(state, insn.rhs)
        pred = insn.pred
        # Pointer against nil.
        if lhs is _NULL_CONST or rhs is _NULL_CONST:
            other = rhs if lhs is _NULL_CONST else lhs
            if other is _NULL_CONST:
                return Bool(pred == "eq")
            tv = self._as_ptr(other)
            if tv is None:
                return Bool()
            if tv.null == NULL:
                return Bool(pred == "eq")
            if tv.null == NONNULL:
                return Bool(pred == "ne")
            return Bool(None, ("nil", tv, pred))
        # Boolean equality.
        if isinstance(lhs, Bool) and isinstance(rhs, Bool):
            if lhs.val is not None and rhs.val is not None:
                same = lhs.val == rhs.val
                return Bool(same if pred == "eq" else not same)
            return Bool()
        # Pointer identity: pids are per-allocation-site, not per-object,
        # so never fold — the executor folds these concretely anyway.
        if isinstance(lhs, Ptr) or isinstance(rhs, Ptr):
            return Bool()
        nl, nr = self._as_num(lhs), self._as_num(rhs)
        if nl is None or nr is None:
            return Bool()
        decided = self._cmp_entailed(state.facts, pred, nl, nr)
        if decided is not None:
            return Bool(decided)
        return Bool(None, ("icmp", pred, nl, nr))

    def _cmp_entailed(self, facts: DiffBounds, pred: str, l: Num,
                      r: Num) -> Optional[bool]:
        def holds(p: str) -> bool:
            if p == "slt":
                return facts.entails(l.var, r.var, r.off - l.off - 1)
            if p == "sle":
                return facts.entails(l.var, r.var, r.off - l.off)
            if p == "sgt":
                return facts.entails(r.var, l.var, l.off - r.off - 1)
            if p == "sge":
                return facts.entails(r.var, l.var, l.off - r.off)
            if p == "eq":
                return holds("sle") and holds("sge")
            if p == "ne":
                return holds("slt") or holds("sgt")
            return False

        if holds(pred):
            return True
        if holds(_NEG_PRED[pred]):
            return False
        return None

    def _transfer_call(self, state: GState, insn: Call, label: str,
                       index: int) -> None:
        callee = insn.callee
        if callee in ("list.new", "newobject"):
            state.regs[insn.dest.name] = Ptr(insn.dest.name, NONNULL, None)
            return
        if callee == "list.len":
            pv = self._as_ptr(self._eval(state, insn.args[0]))
            if pv is None:
                self._set_unknown(state, insn.dest)
                return
            lenvar = f"L!{pv.pid}!{state.epoch}"
            state.facts.add(ZERO, lenvar, 0)  # lengths are non-negative
            state.regs[insn.dest.name] = Num(lenvar, 0)
            return
        if callee == "list.append":
            # Old length variables keep describing values captured before
            # the append; future list.len calls mint new ones.
            state.epoch = f"{label}:{index}"
            return
        if callee == "assume":
            cond = self._eval(state, insn.args[0])
            if isinstance(cond, Bool) and cond.test is not None \
                    and cond.weak in ("", "true"):
                refined = self._apply_test(state, cond.test, positive=True)
                if refined is not None:
                    return  # state refined in place
            return
        summary = self.summaries.get(callee)
        if summary is not None:
            self._apply_summary(state, insn, summary, label, index)
            return
        # An opaque GoPy callee: it may append to any reachable list (so
        # the epoch turns) but cannot reassign caller slots.
        state.epoch = f"{label}:{index}"
        if insn.dest is not None:
            self._set_unknown(state, insn.dest)

    def _apply_summary(self, state: GState, insn: Call, summary,
                       label: str, index: int) -> None:
        """Apply a :class:`~repro.analysis.interproc.FunctionSummary` at a
        call site instead of havocking: purity decides whether the list
        epoch turns, and the summary's token facts are substituted with
        the caller-side views of the arguments."""
        # Bind tokens against the entry state of the call — ``len{i}``
        # means "argument length at entry", so its caller-side variable
        # must use the epoch *before* any turn below.
        subst: Dict[str, Tuple[str, int]] = {"": (ZERO, 0)}
        for i, arg in enumerate(insn.args):
            value = self._eval(state, arg)
            if isinstance(value, (Num, Unknown)):
                num = self._as_num(value)
                subst[f"arg{i}"] = (num.var, num.off)
                continue
            pv = self._as_ptr(value)
            if pv is not None:
                lenvar = f"L!{pv.pid}!{state.epoch}"
                state.facts.add(ZERO, lenvar, 0)  # lengths are non-negative
                subst[f"len{i}"] = (lenvar, 0)
        if not summary.pure:
            state.epoch = f"{label}:{index}"
        if insn.dest is None:
            return
        dest = insn.dest
        if summary.havocked:
            self._set_unknown(state, dest)
            return
        if summary.ret_kind == "int":
            state.facts.kill(dest.name)
            state.regs[dest.name] = Num(dest.name, 0)
            ret_subst = dict(subst)
            ret_subst["ret"] = (dest.name, 0)
            for u, v, c in _subst_facts(summary.ret_facts, ret_subst):
                # ``add`` returning False means this program point is
                # abstractly dead; the (true) facts stay recorded.
                state.facts.add(u, v, c)
            return
        if summary.ret_kind == "bool":
            if not summary.may_false:
                state.regs[dest.name] = Bool(True)
            elif not summary.may_true:
                state.regs[dest.name] = Bool(False)
            else:
                t = _subst_facts(summary.true_facts, subst)
                f = _subst_facts(summary.false_facts, subst)
                if t or f:
                    state.regs[dest.name] = Bool(None, ("summary", t, f))
                else:
                    state.regs[dest.name] = Bool()
            return
        self._set_unknown(state, dest)

    # -- edge refinement ------------------------------------------------------

    def edge(self, state: GState, block: BasicBlock, succ: str):
        state.at = succ
        state = self._refine_edge(state, block, succ)
        if state is not None:
            self._canonicalize(state, succ)
        return state

    def _refine_edge(self, state: GState, block: BasicBlock, succ: str):
        term = block.terminator
        if isinstance(term, ElidedGuardBr):
            # The executor assumes the surviving side's condition on this
            # edge (keeping path conditions bit-identical to the unpruned
            # run), so the analysis may assume it too — this regains
            # precision when summarizing modules that were already pruned.
            cond = self._eval(state, term.cond)
            positive = not term.panic_on_true
            if not isinstance(cond, Bool):
                return state
            if cond.val is not None:
                return state if cond.val == positive else None
            if cond.test is None:
                return state
            need = "true" if positive else "false"
            if cond.weak in ("", need):
                state = self._apply_carry(state, cond, block.label, need)
                if state is None:
                    return None
                return self._apply_test(state, cond.test, positive=positive)
            return state
        if not isinstance(term, CondBr):
            return state
        cond = self._eval(state, term.cond)
        if not isinstance(cond, Bool):
            return state
        # Both labels may coincide; then no refinement is sound.
        if term.then_label == term.else_label:
            return state
        on_true = succ == term.then_label
        if cond.val is not None:
            return state if cond.val == on_true else None
        if cond.test is None:
            return state
        need = "true" if on_true else "false"
        if cond.weak in ("", need):
            state = self._apply_carry(state, cond, block.label, need)
            if state is None:
                return None
            return self._apply_test(state, cond.test, positive=on_true)
        return state

    def _apply_carry(self, state: GState, cond: Bool, label: str,
                     need: str) -> Optional[GState]:
        """Re-apply the facts a short-circuit join dropped, on the edge
        the joined-in constant cannot reach (see :class:`Bool`). Only
        valid while the branch sits in the carry's own block and on the
        weak-designated edge; None means the edge is infeasible."""
        if not cond.carry or cond.weak != need or cond.carry_at != label:
            return state
        for u, v, c in cond.carry:
            if not state.facts.add(u, v, c):
                return None
        return state

    def _canonicalize(self, state: GState, succ: str) -> None:
        """Rename numeric slot values flowing into a join point to the
        point's canonical variables (recording equality), keeping the
        fixpoint's variable names stable across iterations."""
        if self.cfg is None or len(self.cfg.preds.get(succ, ())) < 2:
            return
        for slot, value in list(state.slots.items()):
            if not isinstance(value, Num):
                continue
            jvar = f"J!{succ}!{slot}"
            if value.var == jvar:
                if value.off == 0:
                    continue
                # Self-carried update (e.g. ``i += 1`` around a loop):
                # shift every fact on the variable by the offset.
                shifted = []
                for (u, v), c in state.facts.items():
                    if u == jvar and v != jvar:
                        shifted.append((u, v, c + value.off))
                    elif v == jvar and u != jvar:
                        shifted.append((u, v, c - value.off))
                state.facts.kill(jvar)
                for u, v, c in shifted:
                    state.facts.add(u, v, c)
            else:
                state.facts.kill(jvar)
                state.facts.add(jvar, value.var, value.off)
                state.facts.add(value.var, jvar, -value.off)
            state.slots[slot] = Num(jvar, 0)

    def _apply_test(self, state: GState, test: tuple,
                    positive: bool) -> Optional[GState]:
        """Refine ``state`` with ``test`` (or its negation); None means
        the combination is infeasible."""
        kind = test[0]
        if kind == "icmp":
            _, pred, l, r = test
            if not positive:
                pred = _NEG_PRED[pred]
            return self._add_cmp(state, pred, l, r)
        if kind == "nil":
            _, tv, pred = test
            is_null = (pred == "eq") == positive
            return self._refine_nullness(state, tv, NULL if is_null else NONNULL)
        if kind == "summary":
            # The facts a summarized boolean callee guarantees on the
            # branch taken (already substituted to caller variables).
            _, true_facts, false_facts = test
            for u, v, c in (true_facts if positive else false_facts):
                if not state.facts.add(u, v, c):
                    return None
            return state
        if kind == "and":
            if positive:
                for sub in (test[1], test[2]):
                    state = self._apply_test(state, sub, True)
                    if state is None:
                        return None
            return state
        if kind == "or":
            if not positive:
                for sub in (test[1], test[2]):
                    state = self._apply_test(state, _neg_test(sub), True)
                    if state is None:
                        return None
            return state
        return state

    def _add_cmp(self, state: GState, pred: str, l: Num,
                 r: Num) -> Optional[GState]:
        ok = True
        if pred == "slt":
            ok = state.facts.add(l.var, r.var, r.off - l.off - 1)
        elif pred == "sle":
            ok = state.facts.add(l.var, r.var, r.off - l.off)
        elif pred == "sgt":
            ok = state.facts.add(r.var, l.var, l.off - r.off - 1)
        elif pred == "sge":
            ok = state.facts.add(r.var, l.var, l.off - r.off)
        elif pred == "eq":
            ok = state.facts.add(l.var, r.var, r.off - l.off) and \
                state.facts.add(r.var, l.var, l.off - r.off)
        # "ne" is non-convex: nothing sound to add.
        return state if ok else None

    def _refine_nullness(self, state: GState, tv: Ptr,
                         null: str) -> Optional[GState]:
        if tv.null != MAYBE and tv.null != null:
            return None
        pid = tv.pid
        for name, value in list(state.regs.items()):
            # Only a Ptr can equal ``tv``; the pid test skips the dataclass
            # __eq__ for every other register.
            if value.__class__ is Ptr and value.pid == pid and value == tv:
                state.regs[name] = replace(value, null=null)
        if tv.origin is not None:
            slot_value = state.slots.get(tv.origin)
            # Only write back while the slot still holds the tested value.
            if isinstance(slot_value, Ptr) and slot_value.pid == tv.pid \
                    and slot_value.null == tv.null:
                state.slots[tv.origin] = replace(slot_value, null=null)
        return state
