"""Executor failure modes: internal invariants must fail loudly (a
SymexError is a harness bug; a Panic outcome is a verification result —
the distinction is load-bearing for soundness)."""

import pytest

from repro.frontend import compile_source
from repro.solver import iconst, ivar
from repro.solver.terms import bool_const
from repro.symex import (
    Executor,
    HeapLoader,
    ListVal,
    NULL,
    OutOfBudgetError,
    PathState,
    StructVal,
    SymexError,
)

SOURCE = """
class Box(GoStruct):
    v: int

def get(b: Box) -> int:
    return b.v

def call_through(a: int) -> int:
    return missing_callee(a)

def missing_callee(a: int) -> int:
    return a
"""


def make_executor(**kwargs):
    return Executor([compile_source(SOURCE, "errs")], **kwargs)


class TestDispatchErrors:
    def test_unknown_callee_rejected(self):
        executor = make_executor()
        with pytest.raises(SymexError):
            executor.run("nonexistent", [])

    def test_wrong_arity_rejected(self):
        executor = make_executor()
        with pytest.raises(SymexError):
            executor.run("get", [])

    def test_bound_callee_found(self):
        executor = make_executor()
        # missing_callee exists in the module, so call_through works.
        (out,) = executor.run("call_through", [iconst(3)])
        assert out.value == iconst(3)


class TestTypeErrors:
    def test_int_where_pointer_expected(self):
        executor = make_executor()
        with pytest.raises(SymexError):
            executor.run("get", [iconst(5)])

    def test_bool_where_int_expected_is_caught_downstream(self):
        executor = make_executor()
        state = PathState()
        box = state.memory.alloc(StructVal("Box", (bool_const(True),)))
        # Loading a bool field typed int: the executor returns the stored
        # value; the *frontend* is the type checker. No crash expected.
        (out,) = executor.run("get", [box], state=state)
        assert out.value == bool_const(True)


class TestBudgets:
    def test_call_depth_budget(self):
        source = (
            "def rec(a: int) -> int:\n"
            "    return rec(a)\n"
        )
        executor = Executor([compile_source(source, "rec")], max_call_depth=16)
        with pytest.raises(OutOfBudgetError):
            executor.run("rec", [iconst(1)])

    def test_path_budget(self):
        # n independent symbolic branches -> 2^n paths.
        lines = ["def f(%s) -> int:" % ", ".join(f"a{i}: int" for i in range(12)),
                 "    total = 0"]
        for i in range(12):
            lines.append(f"    if a{i} > 0:")
            lines.append("        total += 1")
        lines.append("    return total")
        executor = Executor(
            [compile_source("\n".join(lines), "wide")], max_paths=100
        )
        with pytest.raises(OutOfBudgetError):
            executor.run("f", [ivar(f"a{i}") for i in range(12)])

    def test_stats_accumulate_across_runs(self):
        executor = make_executor()
        state = PathState()
        box = HeapLoader(state.memory).load
        executor.run("call_through", [iconst(1)])
        first = executor.stats.steps
        executor.run("call_through", [iconst(2)])
        assert executor.stats.steps > first


class TestIntrinsicGuards:
    def test_list_len_on_null(self):
        source = "def f(xs: list[int]) -> int:\n    return len(xs)\n"
        executor = Executor([compile_source(source, "l")])
        # The frontend guards len() with a nil check, so NULL reaches the
        # panic branch, not the intrinsic.
        (out,) = executor.run("f", [NULL])
        assert out.is_panic and out.panic.kind == "nil-dereference"

    def test_symbolic_length_list_len(self):
        source = "def f(xs: list[int]) -> int:\n    return len(xs)\n"
        executor = Executor([compile_source(source, "l2")])
        state = PathState()
        lst = state.memory.alloc(ListVal((ivar("a"),), ivar("n")))
        (out,) = executor.run("f", [lst], state=state)
        assert out.value == ivar("n")


class TestDecodedFunctions:
    """Functions are decoded once into handlers; errors still surface
    with the interpreter's messages, and only where execution reaches
    them."""

    @staticmethod
    def run(fn, args=(), **kwargs):
        from repro.ir import Module

        module = Module("hand")
        module.add_function(fn)
        executor = Executor([module], **kwargs)
        return executor, executor.run(fn.name, list(args))

    def test_read_of_unset_register_keeps_its_message(self):
        from repro.ir import BinOp, ConstInt, Function, Register, Ret
        from repro.ir.types import INT

        fn = Function("f", [("x", INT)], INT)
        entry = fn.new_block("entry")
        entry.append(BinOp(Register("y"), "add", Register("nope"), ConstInt(1)))
        entry.terminate(Ret(Register("y")))
        with pytest.raises(SymexError, match=r"read of unset register %nope"):
            self.run(fn, [iconst(1)])

    def test_malformed_blocks_fail_only_when_reached(self):
        from repro.ir import Br, CondBr, ConstBool, Function, Register, Ret
        from repro.ir.types import INT

        fn = Function("f", [("x", INT)], INT)
        entry = fn.new_block("entry")
        dead = fn.new_block("dead")
        unterminated = fn.new_block("open")
        live = fn.new_block("live")
        entry.terminate(CondBr(ConstBool(True), live.label, dead.label))
        dead.terminate(Br("nowhere"))  # a label the function lacks
        live.terminate(Ret(Register("x")))
        _, (out,) = self.run(fn, [iconst(7)])
        assert out.value == iconst(7)
        entry.terminator = Br(unterminated.label)
        fn.decoded = None  # what an in-place rewrite of the blocks must do
        with pytest.raises(SymexError,
                           match=f"f: unterminated block {unterminated.label}"):
            self.run(fn, [iconst(7)])

    def test_step_budget_exhausts_at_the_same_instruction(self):
        from repro.ir import BinOp, ConstInt, Function, Register, Ret
        from repro.ir.types import INT

        fn = Function("f", [("x", INT)], INT)
        entry = fn.new_block("entry")
        value = Register("x")
        for k in range(5):
            dest = Register(f"v{k}")
            entry.append(BinOp(dest, "add", value, ConstInt(1)))
            value = dest
        entry.terminate(Ret(value))
        executor, (out,) = self.run(fn, [iconst(0)], max_steps=5)
        assert out.value == iconst(5)
        assert executor.stats.steps == 5
        with pytest.raises(OutOfBudgetError, match="step budget exhausted in f"):
            self.run(fn, [iconst(0)], max_steps=4)
