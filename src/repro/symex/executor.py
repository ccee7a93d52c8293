"""The AbsLLVM symbolic executor.

Interprets IR functions over :class:`~repro.symex.state.PathState`, forking
on symbolic branches after solver feasibility checks, and returning one
:class:`Outcome` per explored path — either a normal return (value + final
state) or a reached panic block. Calls dispatch through
:class:`~repro.symex.bindings.Bindings` so any layer can run against its
dependencies' specifications or summaries instead of their code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.ir import (
    Alloca,
    BinOp,
    Br,
    Call,
    CondBr,
    ConstBool,
    ConstInt,
    ConstNull,
    ElidedGuardBr,
    Function,
    GEP,
    ICmp,
    ListType,
    Load,
    Module,
    NamedType,
    Panic,
    PointerType,
    Register,
    Ret,
    Store,
    StructType,
)
from repro.ir.types import TypeRegistry
from repro.solver import Solver, SolveResult
from repro.solver.terms import (
    BoolConst,
    BoolExpr,
    IntExpr,
    NonLinearError,
    and_,
    beq,
    bool_const,
    eq,
    eval_expr,
    free_vars,
    ge,
    gt,
    iadd,
    iconst,
    imul,
    isub,
    le,
    lt,
    ne,
    not_,
    or_,
)
from repro.symex.bindings import Bindings, IRBinding, NativeBinding, SummaryBinding
from repro.symex.errors import OutOfBudgetError, SymexError
from repro.symex.state import PathState
from repro.symex.values import (
    ListVal,
    NULL,
    Pointer,
    StructVal,
    UNINIT,
)


@dataclass(frozen=True)
class PanicInfo:
    """A reached panic block — a safety counterexample candidate."""

    kind: str
    message: str
    function: str

    def __str__(self):
        return f"panic[{self.kind}] in {self.function}: {self.message}"


@dataclass
class Outcome:
    """One fully explored path."""

    state: PathState
    value: object = None
    panic: Optional[PanicInfo] = None

    @property
    def is_panic(self) -> bool:
        return self.panic is not None


@dataclass
class ExecutionStats:
    steps: int = 0
    forks: int = 0
    calls: int = 0
    paths: int = 0
    solver_checks: int = 0
    #: Solver feasibility checks spent on panic-guard branches (a guard =
    #: a CondBr with a Panic successor). The denominator of the pruning
    #: pass's discharge ratio.
    panic_guard_checks: int = 0
    #: Times execution crossed an ElidedGuardBr whose condition was
    #: symbolic (i.e. the unpruned run would have consulted the solver).
    pruned_guard_hits: int = 0
    #: Solver checks those crossings would have cost (1 when a path
    #: witness would have decided one side for free, else 2).
    pruned_checks_avoided: int = 0
    #: Per-function breakdowns of the two counters above, keyed by the
    #: function the guard sits in — what makes a discharge regression
    #: attributable instead of a bare module total.
    guard_checks_by_function: Dict[str, int] = field(default_factory=dict)
    pruned_hits_by_function: Dict[str, int] = field(default_factory=dict)


class Executor:
    """Full-path symbolic executor over a set of IR modules.

    ``modules`` are searched in order for concrete callee code; ``bindings``
    take precedence over modules (that's how specs/summaries replace code).
    One executor instance is reusable across runs; statistics accumulate.
    """

    def __init__(
        self,
        modules: Sequence[Module],
        bindings: Optional[Bindings] = None,
        solver: Optional[Solver] = None,
        max_paths: int = 60000,
        max_steps: int = 5_000_000,
        max_call_depth: int = 128,
        budget=None,
        analysis_check: bool = False,
    ):
        self.modules = list(modules)
        self.bindings = bindings if bindings is not None else Bindings()
        self.solver = solver if solver is not None else Solver(budget=budget)
        self.budget = budget  # Optional[repro.resilience.Budget]
        if budget is not None and self.solver.budget is None:
            self.solver.budget = budget
        self.max_paths = max_paths
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        #: Debug mode: at the first symbolic crossing of each elided guard,
        #: re-ask the solver that the panic side really is infeasible.
        self.analysis_check = analysis_check
        self._checked_sites: set = set()
        self.stats = ExecutionStats()
        self.registry = TypeRegistry()
        for module in self.modules:
            for struct in module.types.structs():
                if struct.name not in self.registry:
                    self.registry.define(struct.name, struct.fields)

    # -- public API -----------------------------------------------------------

    def run(
        self,
        function_name: str,
        args: Sequence[object],
        state: Optional[PathState] = None,
        pre: Sequence[BoolExpr] = (),
    ) -> List[Outcome]:
        """Explore every path of ``function_name`` applied to ``args``.

        ``pre`` is the global precondition (input bounds, section 5.4's
        encoding constraints); infeasible branches under it are pruned.
        """
        if state is None:
            state = PathState()
        for condition in pre:
            state.assume(condition)
        outcomes = self._call(state, function_name, list(args), depth=0)
        self.stats.paths += len(outcomes)
        return outcomes

    def new_object(self, state: PathState, struct_name: str) -> Pointer:
        """Allocate a default-initialised struct block (public helper for
        harnesses that need result holders, e.g. Response blocks)."""
        return self._new_object(state, self.registry.get(struct_name))

    def lookup_function(self, name: str) -> Optional[Function]:
        for module in self.modules:
            if module.has_function(name):
                return module.get_function(name)
        return None

    # -- call dispatch -----------------------------------------------------------

    def _call(self, state: PathState, name: str, args, depth: int) -> List[Outcome]:
        if depth > self.max_call_depth:
            raise OutOfBudgetError(f"call depth above {self.max_call_depth} at {name}")
        self.stats.calls += 1
        binding = self.bindings.lookup(name)
        if binding is not None:
            if isinstance(binding, IRBinding):
                return self._exec_function(state, binding.function, args, depth)
            if isinstance(binding, SummaryBinding):
                return binding.summary.apply(self, state, args)
            if isinstance(binding, NativeBinding):
                return binding.fn(self, state, args)
            raise SymexError(f"unknown binding type for {name!r}")
        function = self.lookup_function(name)
        if function is None:
            raise SymexError(f"no code, spec or summary for callee {name!r}")
        return self._exec_function(state, function, args, depth)

    # -- core interpreter ----------------------------------------------------------

    def _exec_function(
        self, state: PathState, fn: Function, args, depth: int
    ) -> List[Outcome]:
        if len(args) != len(fn.params):
            raise SymexError(
                f"{fn.name} expects {len(fn.params)} args, got {len(args)}"
            )
        regs: Dict[str, object] = {
            pname: value for (pname, _), value in zip(fn.params, args)
        }
        results: List[Outcome] = []
        work = [(state, regs, fn.entry_label, 0)]
        budget = self.budget

        while work:
            state, regs, label, start = work.pop()
            block = fn.blocks[label]
            insns = block.instructions
            i = start
            diverted = False
            while i < len(insns):
                self.stats.steps += 1
                if self.stats.steps > self.max_steps:
                    raise OutOfBudgetError(f"step budget exhausted in {fn.name}")
                if budget is not None:
                    budget.charge()
                insn = insns[i]
                if isinstance(insn, Call):
                    outcomes = self._do_call(state, regs, insn, depth)
                    if len(outcomes) == 1 and not outcomes[0].is_panic:
                        state = outcomes[0].state
                        if insn.dest is not None:
                            regs[insn.dest.name] = outcomes[0].value
                        i += 1
                        continue
                    for out in outcomes:
                        if out.is_panic:
                            results.append(out)
                        else:
                            new_regs = dict(regs)
                            if insn.dest is not None:
                                new_regs[insn.dest.name] = out.value
                            work.append((out.state, new_regs, label, i + 1))
                            self.stats.forks += 1
                    diverted = True
                    break
                try:
                    self._exec_simple(state, regs, insn)
                except _NeedsConcretization as fork_request:
                    self._fork_on_index(state, regs, label, i, fork_request, work)
                    diverted = True
                    break
                i += 1
            if diverted:
                continue

            term = block.terminator
            if isinstance(term, Ret):
                value = (
                    self._eval(regs, term.value) if term.value is not None else None
                )
                results.append(Outcome(state, value, None))
            elif isinstance(term, Br):
                work.append((state, regs, term.target, 0))
            elif isinstance(term, CondBr):
                cond = self._eval(regs, term.cond)
                then_block = fn.blocks.get(term.then_label)
                else_block = fn.blocks.get(term.else_label)
                if isinstance(
                    then_block.terminator if then_block else None, Panic
                ) or isinstance(
                    else_block.terminator if else_block else None, Panic
                ):
                    before = self.stats.solver_checks
                    self._branch(state, regs, cond, term, work, guard=True)
                    spent = self.stats.solver_checks - before
                    self.stats.panic_guard_checks += spent
                    if spent:
                        by_fn = self.stats.guard_checks_by_function
                        by_fn[fn.name] = by_fn.get(fn.name, 0) + spent
                else:
                    self._branch(state, regs, cond, term, work)
            elif isinstance(term, ElidedGuardBr):
                self._cross_elided_guard(state, regs, term, fn, work, results)
            elif isinstance(term, Panic):
                results.append(
                    Outcome(state, None, PanicInfo(term.kind, term.message, fn.name))
                )
            else:
                raise SymexError(f"{fn.name}: unterminated block {label}")

            if len(results) + len(work) > self.max_paths:
                raise OutOfBudgetError(
                    f"path budget exhausted in {fn.name} "
                    f"({len(results)} results, {len(work)} pending)"
                )
        return results

    def _branch(self, state, regs, cond, term: CondBr, work,
                guard: bool = False) -> None:
        if not isinstance(cond, BoolExpr):
            raise SymexError(f"condition is not boolean: {cond!r}")
        folded = _as_concrete_bool(cond)
        if folded is not None:
            target = term.then_label if folded else term.else_label
            work.append((state, regs, target, 0))
            return
        negated = not_(cond)
        # Witness shortcut: a model satisfying pc decides one side for free
        # (any completion of a partial model is valid, since absent
        # variables are unconstrained by pc).
        witness_says: Optional[bool] = None
        if state.witness is not None:
            witness_says = bool(_eval_with_default(cond, state.witness))
        true_witness = state.witness if witness_says is True else None
        false_witness = state.witness if witness_says is False else None
        if witness_says is True:
            feasible_true = True
            feasible_false, false_witness = self._feasible_with_model(
                state.pc, negated, guard
            )
        elif witness_says is False:
            feasible_false = True
            feasible_true, true_witness = self._feasible_with_model(
                state.pc, cond, guard
            )
        else:
            feasible_true, true_witness = self._feasible_with_model(
                state.pc, cond, guard
            )
            feasible_false, false_witness = self._feasible_with_model(
                state.pc, negated, guard
            )
        if feasible_true and feasible_false:
            other = state.fork()
            other.assume(negated)
            other.witness = false_witness
            work.append((other, dict(regs), term.else_label, 0))
            state.assume(cond)
            state.witness = true_witness
            work.append((state, regs, term.then_label, 0))
            self.stats.forks += 1
        elif feasible_true:
            state.assume(cond)
            state.witness = true_witness
            work.append((state, regs, term.then_label, 0))
        elif feasible_false:
            state.assume(negated)
            state.witness = false_witness
            work.append((state, regs, term.else_label, 0))
        # both infeasible: dead path (possible when UNKNOWNs were explored).

    def _cross_elided_guard(self, state, regs, term: ElidedGuardBr, fn, work,
                            results):
        """Cross a panic guard the static analysis elided.

        The unpruned executor would solver-check both sides, find the
        panic side infeasible, and continue down the surviving side after
        ``assume``-ing its condition. We skip the checks but still assume
        the identical condition, so the path condition — and everything
        derived from it (verdicts, counterexample models, summaries) —
        stays bit-identical to the unpruned run; only solver-check
        counters differ.
        """
        cond = self._eval(regs, term.cond)
        if not isinstance(cond, BoolExpr):
            raise SymexError(f"condition is not boolean: {cond!r}")
        folded = _as_concrete_bool(cond)
        if folded is not None:
            if folded == term.panic_on_true:
                # The condition folded onto the panic side. On a feasible
                # path that would mean the static proof was wrong — but it
                # also happens on *infeasible* paths the executor explores
                # when the solver degrades to UNKNOWN (fault injection,
                # incomplete theories): pc is unsatisfiable, so the guard
                # "fires" on values no real execution produces. The unpruned
                # run emits a panic outcome here and lets the verdict
                # machinery classify it; reproduce that outcome exactly.
                results.append(
                    Outcome(state, None,
                            PanicInfo(term.kind, term.message, fn.name))
                )
                return
            work.append((state, regs, term.target, 0))
            return
        survive = not_(cond) if term.panic_on_true else cond
        self.stats.pruned_guard_hits += 1
        self.stats.pruned_checks_avoided += 1 if state.witness is not None else 2
        by_fn = self.stats.pruned_hits_by_function
        by_fn[fn.name] = by_fn.get(fn.name, 0) + 1
        if self.analysis_check and term.site not in self._checked_sites:
            self._checked_sites.add(term.site)
            panic_cond = cond if term.panic_on_true else not_(cond)
            self.stats.solver_checks += 1
            if self.solver.check(panic_cond, path=state.pc) is SolveResult.SAT:
                raise SymexError(
                    f"analysis check failed: panic side of elided "
                    f"{term.kind} guard at {term.site} is satisfiable"
                )
        state.assume(survive)
        work.append((state, regs, term.target, 0))

    def _feasible_with_model(self, pc, cond, guard: bool = False):
        """Is ``pc`` plus ``cond`` satisfiable, and with which model?"""
        self.stats.solver_checks += 1
        verdict = self.solver.check(cond, guard=guard, path=pc)
        if verdict is SolveResult.SAT:
            return True, self.solver.model().as_dict()
        if verdict is SolveResult.UNKNOWN:
            return True, None
        return False, None

    def _feasible(self, pc, cond) -> bool:
        self.stats.solver_checks += 1
        return self.solver.check(cond, path=pc) is not SolveResult.UNSAT

    def _fork_on_index(self, state, regs, label, i, fork_request, work) -> None:
        """Concretization by forking: retry the same instruction once per
        feasible concrete value of the symbolic index."""
        content = state.memory.content(fork_request.block_id)
        if isinstance(content, ListVal):
            candidates = range(len(content.items))
        elif isinstance(content, StructVal):
            candidates = range(len(content.fields))
        else:
            raise SymexError("symbolic index into a scalar block")
        index = fork_request.index
        forked = 0
        for k in candidates:
            pin = eq(index, k)
            if not self._feasible(state.pc, pin):
                continue
            branch = state.fork()
            branch.assume(pin)
            branch.witness = None
            work.append((branch, dict(regs), label, i))
            forked += 1
        # An index value outside every physical slot would be a memory error;
        # the compiled bounds checks make that infeasible, so nothing to add.
        if forked:
            self.stats.forks += forked - 1

    # -- instruction semantics ------------------------------------------------------

    def _exec_simple(self, state: PathState, regs, insn) -> None:
        if isinstance(insn, BinOp):
            regs[insn.dest.name] = self._binop(
                insn.op, self._eval(regs, insn.lhs), self._eval(regs, insn.rhs)
            )
        elif isinstance(insn, ICmp):
            regs[insn.dest.name] = self._icmp(
                insn.pred, self._eval(regs, insn.lhs), self._eval(regs, insn.rhs)
            )
        elif isinstance(insn, Alloca):
            regs[insn.dest.name] = state.memory.alloc_slot()
        elif isinstance(insn, Load):
            ptr = self._pointer(self._eval(regs, insn.ptr))
            ptr = self._concretize_path(state, ptr)
            regs[insn.dest.name] = state.memory.load(ptr)
        elif isinstance(insn, Store):
            ptr = self._pointer(self._eval(regs, insn.ptr))
            ptr = self._concretize_path(state, ptr)
            state.memory.store(ptr, self._eval(regs, insn.value))
        elif isinstance(insn, GEP):
            base = self._pointer(self._eval(regs, insn.base))
            if base.is_null:
                raise SymexError("getelementptr on nil pointer (missing guard?)")
            if base.path:
                raise SymexError("nested getelementptr is not supported")
            if len(insn.indices) != 1:
                raise SymexError("multi-index getelementptr is not supported")
            index = self._eval(regs, insn.indices[0])
            if isinstance(index, IntExpr) and index.is_const:
                index = index.const
            regs[insn.dest.name] = base.child(index)
        else:
            raise SymexError(f"unknown instruction {insn!r}")

    def _do_call(self, state: PathState, regs, insn: Call, depth: int) -> List[Outcome]:
        args = [self._eval(regs, a) for a in insn.args]
        callee = insn.callee
        if callee == "list.new":
            ptr = state.memory.alloc(ListVal.concrete(()))
            return [Outcome(state, ptr)]
        if callee == "list.len":
            content = self._list_content(state, args[0])
            return [Outcome(state, content.length)]
        if callee == "list.append":
            ptr = self._pointer(args[0])
            content = self._list_content(state, args[0])
            try:
                state.memory.replace(ptr.block_id, content.appended(args[1]))
            except ValueError as exc:
                raise SymexError(str(exc)) from exc
            return [Outcome(state, None)]
        if callee == "newobject":
            type_hint = insn.type_hint
            if not isinstance(type_hint, (NamedType, StructType)):
                raise SymexError(f"newobject needs a struct type hint, got {type_hint!r}")
            ptr = self._new_object(state, self.registry.resolve(type_hint))
            return [Outcome(state, ptr)]
        if callee == "assume":
            cond = args[0]
            if not isinstance(cond, BoolExpr):
                raise SymexError("assume() needs a boolean")
            state.assume(cond)
            state.witness = None  # witness may not satisfy the new condition
            return [Outcome(state, None)]
        return self._call(state, callee, args, depth + 1)

    def _new_object(self, state: PathState, struct: StructType) -> Pointer:
        fields = []
        for _, field_type in struct.fields:
            fields.append(self._default_value(state, field_type))
        return state.memory.alloc(StructVal(struct.name, tuple(fields)))

    def _default_value(self, state: PathState, ty):
        from repro.ir.types import BoolType, IntType

        if isinstance(ty, IntType):
            return iconst(0)
        if isinstance(ty, BoolType):
            return bool_const(False)
        if isinstance(ty, PointerType):
            if isinstance(ty.pointee, ListType):
                return state.memory.alloc(ListVal.concrete(()))
            return NULL
        raise SymexError(f"no default value for field type {ty!r}")

    # -- value helpers ----------------------------------------------------------

    def _eval(self, regs, operand):
        if isinstance(operand, Register):
            try:
                return regs[operand.name]
            except KeyError:
                raise SymexError(f"read of unset register %{operand.name}") from None
        if isinstance(operand, ConstInt):
            return iconst(operand.value)
        if isinstance(operand, ConstBool):
            return bool_const(operand.value)
        if isinstance(operand, ConstNull):
            return NULL
        raise SymexError(f"cannot evaluate operand {operand!r}")

    def _pointer(self, value) -> Pointer:
        if not isinstance(value, Pointer):
            raise SymexError(f"expected a pointer, got {value!r}")
        return value

    def _list_content(self, state: PathState, value) -> ListVal:
        ptr = self._pointer(value)
        if ptr.is_null:
            raise SymexError("list operation on nil pointer (missing guard?)")
        if ptr.path:
            raise SymexError("list operation through interior pointer")
        content = state.memory.content(ptr.block_id)
        if not isinstance(content, ListVal):
            raise SymexError(f"block b{ptr.block_id} is not a list")
        return content

    def _concretize_path(self, state: PathState, ptr: Pointer) -> Pointer:
        """Resolve a symbolic element index to a concrete one.

        The codebase never indexes with a *random* symbolic value
        (section 5.4); when a symbolic index does appear it is pinned by the
        path condition, so one model + one entailment check suffices.
        """
        if not ptr.path:
            return ptr
        (index,) = ptr.path
        if isinstance(index, int):
            return ptr
        if isinstance(index, IntExpr):
            if index.is_const:
                return Pointer(ptr.block_id, (index.const,))
            if self.solver.check(path=state.pc) is not SolveResult.SAT:
                raise SymexError("cannot concretise index on infeasible path")
            guess = self.solver.model().evaluate(index)
            pinned = self.solver.check(ne(index, guess), path=state.pc)
            if pinned is SolveResult.UNSAT:
                return Pointer(ptr.block_id, (int(guess),))
            # Several indices feasible: fall back to concretization by
            # forking (section 5.1's "concretization techniques" for the few
            # variable-index accesses).
            raise _NeedsConcretization(ptr.block_id, index)
        raise SymexError(f"bad pointer path element {index!r}")

    def _binop(self, op, lhs, rhs):
        if op in ("add", "sub", "mul"):
            if not isinstance(lhs, IntExpr) or not isinstance(rhs, IntExpr):
                raise SymexError(f"{op} needs ints, got {lhs!r}, {rhs!r}")
            try:
                if op == "add":
                    return iadd(lhs, rhs)
                if op == "sub":
                    return isub(lhs, rhs)
                return imul(lhs, rhs)
            except NonLinearError as exc:
                raise SymexError(str(exc)) from exc
        if op in ("and", "or", "xor"):
            if not isinstance(lhs, BoolExpr) or not isinstance(rhs, BoolExpr):
                raise SymexError(f"{op} needs bools, got {lhs!r}, {rhs!r}")
            if op == "and":
                return and_(lhs, rhs)
            if op == "or":
                return or_(lhs, rhs)
            return or_(and_(lhs, not_(rhs)), and_(not_(lhs), rhs))
        raise SymexError(f"unknown binop {op!r}")

    _INT_CMP = {
        "eq": eq,
        "ne": ne,
        "slt": lt,
        "sle": le,
        "sgt": gt,
        "sge": ge,
    }

    def _icmp(self, pred, lhs, rhs):
        if isinstance(lhs, Pointer) or isinstance(rhs, Pointer):
            if not (isinstance(lhs, Pointer) and isinstance(rhs, Pointer)):
                raise SymexError(f"pointer compared with non-pointer: {lhs!r}, {rhs!r}")
            if pred not in ("eq", "ne"):
                raise SymexError(f"pointers only compare eq/ne, got {pred}")
            same = lhs == rhs
            return bool_const(same if pred == "eq" else not same)
        if isinstance(lhs, BoolExpr) and isinstance(rhs, BoolExpr):
            if pred == "eq":
                return beq(lhs, rhs)
            if pred == "ne":
                return not_(beq(lhs, rhs))
            raise SymexError(f"bools only compare eq/ne, got {pred}")
        if isinstance(lhs, IntExpr) and isinstance(rhs, IntExpr):
            return self._INT_CMP[pred](lhs, rhs)
        raise SymexError(f"cannot compare {lhs!r} with {rhs!r}")


def _eval_with_default(expr: BoolExpr, model: dict) -> bool:
    filled = {name: model.get(name, 0) for name in free_vars(expr)}
    return bool(eval_expr(expr, filled))


def _as_concrete_bool(value: BoolExpr) -> Optional[bool]:
    if isinstance(value, BoolConst):
        return value.value
    return None


class _NeedsConcretization(Exception):
    """Internal signal: a memory access used a truly symbolic index and the
    current path must fork over its feasible concrete values."""

    def __init__(self, block_id: int, index):
        super().__init__(f"symbolic index into b{block_id}")
        self.block_id = block_id
        self.index = index
