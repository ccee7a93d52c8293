"""The AbsLLVM symbolic executor.

Interprets IR functions over :class:`~repro.symex.state.PathState`, forking
on symbolic branches after solver feasibility checks, and returning one
:class:`Outcome` per explored path — either a normal return (value + final
state) or a reached panic block. Calls dispatch through
:class:`~repro.symex.bindings.Bindings` so any layer can run against its
dependencies' specifications or summaries instead of their code.

Each function is *decoded* once, on its first execution
(:func:`decode_function`): every block becomes a tuple of instruction
handlers with their operands already resolved — register names, constants
as interned terms, the term constructor picked by opcode, intrinsics
picked by callee name — plus one handler for its terminator. The
interpreter loop then only charges a step and calls the next handler.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.ir.types import BoolType, IntType, TypeRegistry
from repro.solver import Solver, SolveResult
from repro.solver.terms import (
    FALSE,
    TRUE,
    BoolExpr,
    IntExpr,
    NonLinearError,
    and_,
    beq,
    bool_const,
    eq,
    eval_expr,
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
        code = fn.decoded
        if code is None:
            code = fn.decoded = decode_function(fn)
        if len(args) != len(code.params):
            raise SymexError(
                f"{fn.name} expects {len(code.params)} args, got {len(args)}"
            )
        regs = _Frame(code.constants)
        for pname, value in zip(code.params, args):
            regs[pname] = value
        results: List[Outcome] = []
        work = [(state, regs, code.entry, 0)]
        stats = self.stats
        max_steps = self.max_steps
        budget = self.budget

        while work:
            state, regs, block, start = work.pop()
            ops = block.ops
            for i in range(start, len(ops)):
                # One step (and one fuel) per instruction, charged before
                # it runs, so exhaustion lands on the same instruction
                # whatever the instruction is.
                stats.steps += 1
                if stats.steps > max_steps:
                    raise OutOfBudgetError(f"step budget exhausted in {fn.name}")
                if budget is not None:
                    budget.charge()
                try:
                    outcomes = ops[i](self, state, regs, depth)
                except _NeedsConcretization as fork_request:
                    self._fork_on_index(state, regs, block, i, fork_request, work)
                    break
                if outcomes is None:
                    continue
                # A call: continue in place on a single normal return,
                # otherwise queue one continuation per returned path.
                dest = block.call_dests[i]
                if len(outcomes) == 1 and outcomes[0].panic is None:
                    state = outcomes[0].state
                    if dest is not None:
                        regs[dest] = outcomes[0].value
                    continue
                for out in outcomes:
                    if out.panic is not None:
                        results.append(out)
                    else:
                        new_regs = _Frame(regs)
                        if dest is not None:
                            new_regs[dest] = out.value
                        work.append((out.state, new_regs, block, i + 1))
                        stats.forks += 1
                break
            else:
                block.terminator(self, state, regs, work, results)
                if len(results) + len(work) > self.max_paths:
                    raise OutOfBudgetError(
                        f"path budget exhausted in {fn.name} "
                        f"({len(results)} results, {len(work)} pending)"
                    )
        return results

    def _branch(self, state, regs, cond, then_block, else_block, work) -> None:
        if not isinstance(cond, BoolExpr):
            raise SymexError(f"condition is not boolean: {cond!r}")
        if cond is TRUE or cond is FALSE:
            work.append((state, regs, then_block if cond is TRUE else else_block, 0))
            return
        negated = not_(cond)
        # Witness shortcut: a model satisfying pc decides one side for free
        # (any completion of a partial model is valid, since absent
        # variables are unconstrained by pc).
        witness_says: Optional[bool] = None
        if state.witness is not None:
            witness_says = bool(eval_expr(cond, state.witness))
        true_witness = state.witness if witness_says is True else None
        false_witness = state.witness if witness_says is False else None
        if witness_says is True:
            feasible_true = True
            feasible_false, false_witness = self._feasible_with_model(
                state.pc, negated
            )
        elif witness_says is False:
            feasible_false = True
            feasible_true, true_witness = self._feasible_with_model(
                state.pc, cond
            )
        else:
            feasible_true, true_witness = self._feasible_with_model(
                state.pc, cond
            )
            feasible_false, false_witness = self._feasible_with_model(
                state.pc, negated
            )
        if feasible_true and feasible_false:
            other = state.fork()
            other.assume(negated)
            other.witness = false_witness
            work.append((other, _Frame(regs), else_block, 0))
            state.assume(cond)
            state.witness = true_witness
            work.append((state, regs, then_block, 0))
            self.stats.forks += 1
        elif feasible_true:
            state.assume(cond)
            state.witness = true_witness
            work.append((state, regs, then_block, 0))
        elif feasible_false:
            state.assume(negated)
            state.witness = false_witness
            work.append((state, regs, else_block, 0))
        # both infeasible: dead path (possible when UNKNOWNs were explored).

    def _cross_elided_guard(self, state, regs, cond, term: ElidedGuardBr,
                            function_name: str, target, work, results):
        """Cross a panic guard the static analysis elided.

        The unpruned executor would solver-check both sides, find the
        panic side infeasible, and continue down the surviving side after
        ``assume``-ing its condition. We skip the checks but still assume
        the identical condition, so the path condition — and everything
        derived from it (verdicts, counterexample models, summaries) —
        stays bit-identical to the unpruned run; only solver-check
        counters differ.
        """
        if not isinstance(cond, BoolExpr):
            raise SymexError(f"condition is not boolean: {cond!r}")
        if cond is TRUE or cond is FALSE:
            if (cond is TRUE) == term.panic_on_true:
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
                            PanicInfo(term.kind, term.message, function_name))
                )
                return
            work.append((state, regs, target, 0))
            return
        survive = not_(cond) if term.panic_on_true else cond
        self.stats.pruned_guard_hits += 1
        self.stats.pruned_checks_avoided += 1 if state.witness is not None else 2
        by_fn = self.stats.pruned_hits_by_function
        by_fn[function_name] = by_fn.get(function_name, 0) + 1
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
        work.append((state, regs, target, 0))

    def _feasible_with_model(self, pc, cond):
        """Is ``pc`` plus ``cond`` satisfiable, and with which model?"""
        self.stats.solver_checks += 1
        verdict = self.solver.check(cond, path=pc)
        if verdict is SolveResult.SAT:
            return True, _Witness(self.solver.model().as_dict())
        if verdict is SolveResult.UNKNOWN:
            return True, None
        return False, None

    def _feasible(self, pc, cond) -> bool:
        self.stats.solver_checks += 1
        return self.solver.check(cond, path=pc) is not SolveResult.UNSAT

    def _fork_on_index(self, state, regs, block, i, fork_request, work) -> None:
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
            work.append((branch, _Frame(regs), block, i))
            forked += 1
        # An index value outside every physical slot would be a memory error;
        # the compiled bounds checks make that infeasible, so nothing to add.
        if forked:
            self.stats.forks += forked - 1

    # -- value helpers ----------------------------------------------------------

    def _new_object(self, state: PathState, struct: StructType) -> Pointer:
        fields = []
        for _, field_type in struct.fields:
            fields.append(self._default_value(state, field_type))
        return state.memory.alloc(StructVal(struct.name, tuple(fields)))

    def _default_value(self, state: PathState, ty):
        if isinstance(ty, IntType):
            return iconst(0)
        if isinstance(ty, BoolType):
            return FALSE
        if isinstance(ty, PointerType):
            if isinstance(ty.pointee, ListType):
                return state.memory.alloc(ListVal.concrete(()))
            return NULL
        raise SymexError(f"no default value for field type {ty!r}")

    def _list_content(self, state: PathState, value) -> ListVal:
        ptr = _pointer(value)
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


class _NeedsConcretization(Exception):
    """Internal signal: a memory access used a truly symbolic index and the
    current path must fork over its feasible concrete values."""

    def __init__(self, block_id: int, index):
        super().__init__(f"symbolic index into b{block_id}")
        self.block_id = block_id
        self.index = index


class _Frame(dict):
    """One activation's registers, keyed by register name. It starts as a
    copy of the function's constant pool (int keys, which no register name
    collides with), so every operand is read the same way."""

    __slots__ = ()

    def __missing__(self, name):
        if isinstance(name, _Unreadable):
            raise SymexError(f"cannot evaluate operand {name.operand!r}")
        raise SymexError(f"read of unset register %{name}")


def _pointer(value) -> Pointer:
    if not isinstance(value, Pointer):
        raise SymexError(f"expected a pointer, got {value!r}")
    return value


class _Witness(dict):
    """A model known to satisfy a path's condition. Variables it does not
    mention read as 0 (false): the condition leaves them unconstrained,
    so any completion of the model satisfies it too."""

    __slots__ = ()

    def __missing__(self, name):
        return 0


# ---------------------------------------------------------------------------
# Decoding: each function once into per-block handler tuples.
# ---------------------------------------------------------------------------

#: An instruction handler: ``(executor, state, regs, depth)``. It returns
#: None, or — for a call into code, a spec or a summary — the callee's
#: outcomes.
Handler = Callable[["Executor", PathState, _Frame, int], Optional[List[Outcome]]]


class DecodedBlock:
    """One basic block, ready to run: ``ops[i]`` executes instruction
    ``i``; ``call_dests[i]`` is the register a call at ``i`` writes (or
    None); ``terminator`` is ``(executor, state, regs, work, results)``."""

    __slots__ = ("ops", "call_dests", "terminator")

    def __init__(self):
        self.ops: Tuple[Handler, ...] = ()
        self.call_dests: Tuple[Optional[str], ...] = ()
        self.terminator = None


class DecodedFunction:
    """A function's parameter names, entry block (the rest hang off its
    terminators) and constant pool (operand key -> interned term)."""

    __slots__ = ("params", "entry", "constants")

    def __init__(self, params, entry, constants):
        self.params: Tuple[str, ...] = params
        self.entry: DecodedBlock = entry
        self.constants: Dict[int, object] = constants


def decode_function(fn: Function) -> DecodedFunction:
    """Decode ``fn`` for the interpreter.

    The result lives on the function (``fn.decoded``), so it is shared by
    every executor and dies with the IR; anything that rewrites the blocks
    in place resets that slot. Callees stay names: bindings are looked up
    at each call, because layers rebind them between runs. Decoding never
    raises — malformed instructions decode to handlers that raise the
    interpreter's error when (and only when) they execute.
    """
    decoder = _Decoder(fn)
    for label, block in fn.blocks.items():
        decoded = decoder.blocks[label]
        ops = []
        dests = []
        for insn in block.instructions:
            handler, dest = decoder.instruction(insn)
            ops.append(handler)
            dests.append(dest)
        decoded.ops = tuple(ops)
        decoded.call_dests = tuple(dests)
        decoded.terminator = decoder.terminator(label, block.terminator)
    entry = decoder.block(fn.entry_label)
    params = tuple(name for name, _ in fn.params)
    return DecodedFunction(params, entry, decoder.constants)


_ARITH = {"add": iadd, "sub": isub, "mul": imul}
_CONST_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_INT_CMP = {"eq": eq, "ne": ne, "slt": lt, "sle": le, "sgt": gt, "sge": ge}
_CONST_CMP = {
    "eq": operator.eq, "ne": operator.ne, "slt": operator.lt,
    "sle": operator.le, "sgt": operator.gt, "sge": operator.ge,
}


class _Decoder:
    """Builds the handlers of one function."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.blocks = {label: DecodedBlock() for label in fn.blocks}
        self.constants: Dict[int, object] = {}
        self._constant_keys: Dict[object, int] = {}

    # -- operands ---------------------------------------------------------------

    def operand(self, value):
        """The frame key ``value`` is read under: a register's name, or
        the constant pool slot of an interned constant."""
        if isinstance(value, Register):
            return value.name
        if isinstance(value, ConstInt):
            term = iconst(value.value)
        elif isinstance(value, ConstBool):
            term = bool_const(value.value)
        elif isinstance(value, ConstNull):
            term = NULL
        else:
            return _Unreadable(value)
        key = self._constant_keys.get(term)
        if key is None:
            key = self._constant_keys[term] = len(self.constants)
            self.constants[key] = term
        return key

    def block(self, label) -> DecodedBlock:
        decoded = self.blocks.get(label)
        if decoded is None:
            # A branch to a label the function lacks fails when taken,
            # exactly as the block lookup would.
            decoded = DecodedBlock()
            decoded.terminator = _missing_block(label)
        return decoded

    # -- instructions -------------------------------------------------------------

    def instruction(self, insn) -> Tuple[Handler, Optional[str]]:
        if isinstance(insn, Call):
            return self.call(insn)
        if isinstance(insn, BinOp):
            return self.binop(insn), None
        if isinstance(insn, ICmp):
            return self.icmp(insn), None
        if isinstance(insn, Alloca):
            return _alloca(insn.dest.name), None
        if isinstance(insn, Load):
            return _load(self.operand(insn.ptr), insn.dest.name), None
        if isinstance(insn, Store):
            return _store(self.operand(insn.ptr), self.operand(insn.value)), None
        if isinstance(insn, GEP):
            return self.gep(insn), None
        return _raiser(f"unknown instruction {insn!r}"), None

    def binop(self, insn: BinOp) -> Handler:
        dest, op = insn.dest.name, insn.op
        lhs, rhs = self.operand(insn.lhs), self.operand(insn.rhs)
        if op in _ARITH:
            return _arith(op, _ARITH[op], _CONST_ARITH[op], lhs, rhs, dest)
        if op in ("and", "or", "xor"):
            return _logic(op, lhs, rhs, dest)
        return _raiser(f"unknown binop {op!r}", (lhs, rhs))

    def icmp(self, insn: ICmp) -> Handler:
        return _compare(insn.pred, self.operand(insn.lhs),
                        self.operand(insn.rhs), insn.dest.name)

    def gep(self, insn: GEP) -> Handler:
        base = self.operand(insn.base)
        dest = insn.dest.name
        if len(insn.indices) != 1:
            return _gep(base, None, dest, None)
        (index,) = insn.indices
        if isinstance(index, ConstInt):
            return _gep(base, None, dest, index.value)
        return _gep(base, self.operand(index), dest, None)

    def call(self, insn: Call) -> Tuple[Handler, Optional[str]]:
        args = tuple(self.operand(arg) for arg in insn.args)
        dest = insn.dest.name if insn.dest is not None else None
        act = _INTRINSICS.get(insn.callee)
        if act is not None:
            return _intrinsic(act, args, dest, insn.type_hint), None
        return _call(insn.callee, args), dest

    # -- terminators --------------------------------------------------------------

    def terminator(self, label: str, term):
        fn_name = self.fn.name
        if isinstance(term, Ret):
            value = self.operand(term.value) if term.value is not None else None
            return _ret(value)
        if isinstance(term, Br):
            return _br(self.block(term.target))
        if isinstance(term, CondBr):
            cond = self.operand(term.cond)
            then_block = self.block(term.then_label)
            else_block = self.block(term.else_label)
            if self._panics(term.then_label) or self._panics(term.else_label):
                return _guard_branch(cond, then_block, else_block, fn_name)
            return _branch(cond, then_block, else_block)
        if isinstance(term, ElidedGuardBr):
            return _elided_guard(self.operand(term.cond), term,
                                 self.block(term.target), fn_name)
        if isinstance(term, Panic):
            return _panic(PanicInfo(term.kind, term.message, fn_name))
        return _unterminated(f"{fn_name}: unterminated block {label}")

    def _panics(self, label: str) -> bool:
        block = self.fn.blocks.get(label)
        return block is not None and isinstance(block.terminator, Panic)


class _Unreadable:
    """Frame key of an operand that is not a value: no frame holds it, so
    reading it fails with the interpreter's error."""

    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


def _raiser(message: str, reads: Tuple = ()) -> Handler:
    def run(ex, state, regs, depth):
        for key in reads:
            regs[key]
        raise SymexError(message)
    return run


def _alloca(dest: str) -> Handler:
    def run(ex, state, regs, depth):
        regs[dest] = state.memory.alloc_slot()
    return run


def _load(ptr_key, dest: str) -> Handler:
    def run(ex, state, regs, depth):
        ptr = regs[ptr_key]
        if ptr.__class__ is not Pointer:
            ptr = _pointer(ptr)
        if ptr.path:
            ptr = ex._concretize_path(state, ptr)
        regs[dest] = state.memory.load(ptr)
    return run


def _store(ptr_key, value_key) -> Handler:
    def run(ex, state, regs, depth):
        ptr = regs[ptr_key]
        if ptr.__class__ is not Pointer:
            ptr = _pointer(ptr)
        if ptr.path:
            ptr = ex._concretize_path(state, ptr)
        state.memory.store(ptr, regs[value_key])
    return run


def _gep(base_key, index_key, dest: str, const_index: Optional[int]) -> Handler:
    """``index_key`` and ``const_index`` both None: a multi-index GEP,
    which fails once its base checks out."""
    def run(ex, state, regs, depth):
        base = regs[base_key]
        if base.__class__ is not Pointer:
            base = _pointer(base)
        if base.block_id is None:
            raise SymexError("getelementptr on nil pointer (missing guard?)")
        if base.path:
            raise SymexError("nested getelementptr is not supported")
        if const_index is not None:
            index = const_index
        elif index_key is None:
            raise SymexError("multi-index getelementptr is not supported")
        else:
            index = regs[index_key]
            if index.__class__ is IntExpr and not index.coeffs:
                index = index.const
        regs[dest] = Pointer(base.block_id, (index,))
    return run


def _arith(op: str, build, fold, lhs_key, rhs_key, dest: str) -> Handler:
    def run(ex, state, regs, depth):
        lhs = regs[lhs_key]
        rhs = regs[rhs_key]
        if lhs.__class__ is not IntExpr or rhs.__class__ is not IntExpr:
            raise SymexError(f"{op} needs ints, got {lhs!r}, {rhs!r}")
        if not lhs.coeffs and not rhs.coeffs:
            regs[dest] = IntExpr((), fold(lhs.const, rhs.const))
            return
        try:
            regs[dest] = build(lhs, rhs)
        except NonLinearError as exc:
            raise SymexError(str(exc)) from exc
    return run


def _logic(op: str, lhs_key, rhs_key, dest: str) -> Handler:
    def run(ex, state, regs, depth):
        lhs = regs[lhs_key]
        rhs = regs[rhs_key]
        if not isinstance(lhs, BoolExpr) or not isinstance(rhs, BoolExpr):
            raise SymexError(f"{op} needs bools, got {lhs!r}, {rhs!r}")
        if op == "and":
            regs[dest] = and_(lhs, rhs)
        elif op == "or":
            regs[dest] = or_(lhs, rhs)
        else:
            regs[dest] = or_(and_(lhs, not_(rhs)), and_(not_(lhs), rhs))
    return run


def _compare(pred: str, lhs_key, rhs_key, dest: str) -> Handler:
    build = _INT_CMP.get(pred)
    fold = _CONST_CMP.get(pred)
    equal = pred == "eq"
    pointers = equal or pred == "ne"

    def run(ex, state, regs, depth):
        lhs = regs[lhs_key]
        rhs = regs[rhs_key]
        if lhs.__class__ is IntExpr and rhs.__class__ is IntExpr:
            if not lhs.coeffs and not rhs.coeffs:
                regs[dest] = TRUE if fold(lhs.const, rhs.const) else FALSE
            else:
                regs[dest] = build(lhs, rhs)
        elif pointers and lhs.__class__ is Pointer and rhs.__class__ is Pointer:
            same = lhs.block_id == rhs.block_id and lhs.path == rhs.path
            regs[dest] = TRUE if same == equal else FALSE
        else:
            regs[dest] = _compare_values(pred, lhs, rhs)
    return run


def _compare_values(pred: str, lhs, rhs):
    """``icmp`` on pointers, bools, or anything not two ints."""
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
        return _INT_CMP[pred](lhs, rhs)
    raise SymexError(f"cannot compare {lhs!r} with {rhs!r}")


def _call(callee: str, arg_keys: Tuple) -> Handler:
    def run(ex, state, regs, depth):
        args = [regs[key] for key in arg_keys]
        return ex._call(state, callee, args, depth + 1)
    return run


# -- intrinsics -------------------------------------------------------------------


def _intrinsic(act, arg_keys: Tuple, dest: Optional[str], type_hint) -> Handler:
    """A call the executor implements natively: read every argument, then
    ``act(executor, state, args, type_hint)`` gives the result."""
    def run(ex, state, regs, depth):
        value = act(ex, state, [regs[key] for key in arg_keys], type_hint)
        if dest is not None:
            regs[dest] = value
    return run


def _list_new(ex, state, args, type_hint):
    return state.memory.alloc(ListVal.concrete(()))


def _list_len(ex, state, args, type_hint):
    return ex._list_content(state, args[0]).length


def _list_append(ex, state, args, type_hint):
    ptr = _pointer(args[0])
    content = ex._list_content(state, args[0])
    try:
        state.memory.replace(ptr.block_id, content.appended(args[1]))
    except ValueError as exc:
        raise SymexError(str(exc)) from exc


def _newobject(ex, state, args, type_hint):
    if not isinstance(type_hint, (NamedType, StructType)):
        raise SymexError(f"newobject needs a struct type hint, got {type_hint!r}")
    return ex._new_object(state, ex.registry.resolve(type_hint))


def _assume(ex, state, args, type_hint):
    cond = args[0]
    if not isinstance(cond, BoolExpr):
        raise SymexError("assume() needs a boolean")
    state.assume(cond)
    state.witness = None  # witness may not satisfy the new condition


_INTRINSICS = {
    "list.new": _list_new,
    "list.len": _list_len,
    "list.append": _list_append,
    "newobject": _newobject,
    "assume": _assume,
}


# -- terminators -----------------------------------------------------------------


def _ret(value_key):
    def run(ex, state, regs, work, results):
        value = regs[value_key] if value_key is not None else None
        results.append(Outcome(state, value, None))
    return run


def _br(target: DecodedBlock):
    def run(ex, state, regs, work, results):
        work.append((state, regs, target, 0))
    return run


def _branch(cond_key, then_block: DecodedBlock, else_block: DecodedBlock):
    def run(ex, state, regs, work, results):
        ex._branch(state, regs, regs[cond_key], then_block, else_block, work)
    return run


def _guard_branch(cond_key, then_block: DecodedBlock,
                  else_block: DecodedBlock, fn_name: str):
    """A CondBr with a panic successor: its solver checks are counted as
    guard checks, per function."""
    def run(ex, state, regs, work, results):
        cond = regs[cond_key]
        stats = ex.stats
        before = stats.solver_checks
        ex._branch(state, regs, cond, then_block, else_block, work)
        spent = stats.solver_checks - before
        stats.panic_guard_checks += spent
        if spent:
            by_fn = stats.guard_checks_by_function
            by_fn[fn_name] = by_fn.get(fn_name, 0) + spent
    return run


def _elided_guard(cond_key, term: ElidedGuardBr, target: DecodedBlock,
                  fn_name: str):
    def run(ex, state, regs, work, results):
        ex._cross_elided_guard(state, regs, regs[cond_key], term, fn_name,
                               target, work, results)
    return run


def _panic(info: PanicInfo):
    def run(ex, state, regs, work, results):
        results.append(Outcome(state, None, info))
    return run


def _unterminated(message: str):
    def run(ex, state, regs, work, results):
        raise SymexError(message)
    return run


def _missing_block(label: str):
    def run(ex, state, regs, work, results):
        raise KeyError(label)
    return run
