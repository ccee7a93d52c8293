"""Unit tests for the symbolic executor on small GoPy programs."""

import pytest

from repro.frontend import compile_source
from repro.frontend.runtime import GoStruct
from repro.solver import Solver, SolveResult, eq, ge, iconst, ivar, le
from repro.solver.terms import TRUE, and_, bool_const, not_
from repro.symex import (
    Executor,
    HeapLoader,
    ListVal,
    Memory,
    NULL,
    PathState,
    SymexError,
    concretize_value,
)


def make_executor(source, **kwargs):
    module = compile_source(source)
    return Executor([module], **kwargs)


def normal(outcomes):
    return [o for o in outcomes if not o.is_panic]


def panics(outcomes):
    return [o for o in outcomes if o.is_panic]


class TestStraightLine:
    def test_concrete_arithmetic(self):
        ex = make_executor("def f(a: int) -> int:\n    return a * 2 + 1\n")
        (out,) = ex.run("f", [iconst(5)])
        assert out.value == iconst(11)

    def test_symbolic_arithmetic(self):
        ex = make_executor("def f(a: int) -> int:\n    return a + a\n")
        (out,) = ex.run("f", [ivar("a")])
        assert dict(out.value.coeffs) == {"a": 2}

    def test_locals(self):
        ex = make_executor(
            "def f(a: int) -> int:\n    x = a + 1\n    y = x * 3\n    return y - x\n"
        )
        (out,) = ex.run("f", [ivar("a")])
        # (a+1)*3 - (a+1) == 2a + 2
        assert dict(out.value.coeffs) == {"a": 2}
        assert out.value.const == 2


class TestBranching:
    SOURCE = (
        "def f(a: int) -> int:\n"
        "    if a > 10:\n"
        "        return 1\n"
        "    return 0\n"
    )

    def test_symbolic_fork(self):
        ex = make_executor(self.SOURCE)
        outs = ex.run("f", [ivar("a")])
        assert len(outs) == 2
        values = sorted(o.value.const for o in outs)
        assert values == [0, 1]

    def test_path_conditions_partition(self):
        ex = make_executor(self.SOURCE)
        outs = ex.run("f", [ivar("a")])
        solver = Solver()
        taken = [o for o in outs if o.value == iconst(1)][0]
        not_taken = [o for o in outs if o.value == iconst(0)][0]
        # pc of the taken branch entails a > 10.
        assert solver.check(eq(ivar("a"), 5), path=taken.state.pc) \
            is SolveResult.UNSAT
        assert solver.check(eq(ivar("a"), 5), path=not_taken.state.pc) \
            is SolveResult.SAT

    def test_precondition_prunes(self):
        ex = make_executor(self.SOURCE)
        outs = ex.run("f", [ivar("a")], pre=[le(ivar("a"), 3)])
        assert len(outs) == 1
        assert outs[0].value == iconst(0)

    def test_concrete_branch_no_fork(self):
        ex = make_executor(self.SOURCE)
        outs = ex.run("f", [iconst(42)])
        assert len(outs) == 1 and outs[0].value == iconst(1)

    def test_nested_branches(self):
        ex = make_executor(
            "def f(a: int, b: int) -> int:\n"
            "    if a > 0:\n"
            "        if b > 0:\n"
            "            return 3\n"
            "        return 2\n"
            "    return 1\n"
        )
        outs = ex.run("f", [ivar("a"), ivar("b")])
        assert sorted(o.value.const for o in outs) == [1, 2, 3]

    def test_short_circuit_paths(self):
        ex = make_executor(
            "def f(a: int, b: int) -> bool:\n"
            "    return a > 0 and b > 0\n"
        )
        outs = ex.run("f", [ivar("a"), ivar("b")])
        # The a<=0 side short-circuits to false; the a>0 side returns the
        # residual symbolic value of b>0 without forking further.
        assert len(outs) == 2
        values = {repr(o.value) for o in outs}
        assert "false" in values


class TestLoops:
    def test_concrete_loop(self):
        ex = make_executor(
            "def f(n: int) -> int:\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        total += i\n"
            "    return total\n"
        )
        (out,) = ex.run("f", [iconst(5)])
        assert out.value == iconst(10)

    def test_symbolic_bounded_loop_forks_per_iteration(self):
        ex = make_executor(
            "def f(n: int) -> int:\n"
            "    total = 0\n"
            "    i = 0\n"
            "    while i < n:\n"
            "        total += 1\n"
            "        i += 1\n"
            "    return total\n"
        )
        n = ivar("n")
        outs = ex.run("f", [n], pre=[ge(n, 0), le(n, 3)])
        assert sorted(o.value.const for o in outs) == [0, 1, 2, 3]


STRUCT_SOURCE = """
class Point(GoStruct):
    x: int
    y: int

def get_x(p: Point) -> int:
    return p.x

def swap(p: Point) -> None:
    t = p.x
    p.x = p.y
    p.y = t

def fresh(a: int) -> Point:
    return Point(x=a, y=a + 1)
"""


class TestStructs:
    def test_nil_panic_reachable(self):
        ex = make_executor(STRUCT_SOURCE)
        outs = ex.run("get_x", [NULL])
        assert len(outs) == 1 and outs[0].is_panic
        assert outs[0].panic.kind == "nil-dereference"

    def test_loaded_heap_access(self):
        ex = make_executor(STRUCT_SOURCE)

        class Point(GoStruct):
            x: int
            y: int

        state = PathState()
        ptr = HeapLoader(state.memory).load(Point(x=7, y=9))
        (out,) = ex.run("get_x", [ptr], state=state)
        assert out.value == iconst(7)

    def test_mutation_visible_in_memory(self):
        ex = make_executor(STRUCT_SOURCE)

        class Point(GoStruct):
            x: int
            y: int

        state = PathState()
        ptr = HeapLoader(state.memory).load(Point(x=1, y=2))
        (out,) = ex.run("swap", [ptr], state=state)
        decoded = concretize_value(ptr, out.state.memory, registry=ex.registry)
        assert decoded["x"] == 2 and decoded["y"] == 1

    def test_newobject_fields(self):
        ex = make_executor(STRUCT_SOURCE)
        (out,) = ex.run("fresh", [ivar("a")])
        decoded = out.state.memory.content(out.value.block_id)
        assert decoded.fields[0] == ivar("a")

    def test_partial_abstraction_mixed_fields(self):
        # One field symbolic, one concrete, in the same struct block —
        # the section 5.1 flexible-memory-model property.
        ex = make_executor(STRUCT_SOURCE)

        class Point(GoStruct):
            x: int
            y: int

        state = PathState()
        obj = Point(x=5, y=0)
        obj.y = ivar("sym")
        ptr = HeapLoader(state.memory).load(obj)
        (out,) = ex.run("swap", [ptr], state=state)
        content = out.state.memory.content(ptr.block_id)
        assert content.fields[0] == ivar("sym")
        assert content.fields[1] == iconst(5)


LIST_SOURCE = """
def head(xs: list[int]) -> int:
    return xs[0]

def safe_head(xs: list[int]) -> int:
    if len(xs) > 0:
        return xs[0]
    return -1

def push(xs: list[int], v: int) -> None:
    xs.append(v)
"""


class TestLists:
    def _state_with(self, items, length=None):
        state = PathState()
        if length is None:
            lst = ListVal.concrete(items)
        else:
            lst = ListVal(tuple(items), length)
        ptr = state.memory.alloc(lst)
        return state, ptr

    def test_concrete_bounds_ok(self):
        ex = make_executor(LIST_SOURCE)
        state, ptr = self._state_with([iconst(4)])
        outs = ex.run("head", [ptr], state=state)
        assert len(outs) == 1 and outs[0].value == iconst(4)

    def test_empty_list_panics(self):
        ex = make_executor(LIST_SOURCE)
        state, ptr = self._state_with([])
        outs = ex.run("head", [ptr], state=state)
        assert len(outs) == 1 and outs[0].panic.kind == "index-out-of-bounds"

    def test_symbolic_length_unguarded_panic_path(self):
        ex = make_executor(LIST_SOURCE)
        length = ivar("len")
        state, ptr = self._state_with([ivar("x0"), ivar("x1")], length)
        outs = ex.run(
            "head", [ptr], state=state, pre=[ge(length, 0), le(length, 2)]
        )
        kinds = {o.panic.kind for o in panics(outs)}
        assert "index-out-of-bounds" in kinds  # len == 0 is feasible
        assert normal(outs)  # and so is len > 0

    def test_symbolic_length_guarded_no_panic(self):
        ex = make_executor(LIST_SOURCE)
        length = ivar("len")
        state, ptr = self._state_with([ivar("x0"), ivar("x1")], length)
        outs = ex.run(
            "safe_head", [ptr], state=state, pre=[ge(length, 0), le(length, 2)]
        )
        assert not panics(outs)
        values = {o.value for o in outs}
        assert iconst(-1) in values and ivar("x0") in values

    def test_append_grows(self):
        ex = make_executor(LIST_SOURCE)
        state, ptr = self._state_with([iconst(1)])
        (out,) = ex.run("push", [ptr, ivar("v")], state=state)
        content = out.state.memory.content(ptr.block_id)
        assert len(content.items) == 2 and content.items[1] == ivar("v")

    def test_append_to_symbolic_length_rejected(self):
        ex = make_executor(LIST_SOURCE)
        state, ptr = self._state_with([ivar("x0")], ivar("len"))
        with pytest.raises(SymexError):
            ex.run("push", [ptr, iconst(1)], state=state,
                   pre=[ge(ivar("len"), 0), le(ivar("len"), 1)])


class TestCalls:
    SOURCE = (
        "def helper(a: int) -> int:\n"
        "    if a > 0:\n"
        "        return a\n"
        "    return 0 - a\n"
        "def f(a: int) -> int:\n"
        "    return helper(a) + 1\n"
    )

    def test_inlined_call_forks(self):
        ex = make_executor(self.SOURCE)
        outs = ex.run("f", [ivar("a")])
        assert len(outs) == 2

    def test_binding_replaces_code(self):
        # Replace helper by a spec that returns 99 unconditionally.
        spec_module = compile_source("def helper_spec(a: int) -> int:\n    return 99\n")
        module = compile_source(self.SOURCE)
        ex = Executor([module])
        ex.bindings.bind_spec("helper", spec_module.get_function("helper_spec"))
        outs = ex.run("f", [ivar("a")])
        assert len(outs) == 1 and outs[0].value == iconst(100)

    def test_native_binding(self):
        from repro.symex import Outcome

        module = compile_source(self.SOURCE)
        ex = Executor([module])

        def native(executor, state, args):
            from repro.symex.executor import Outcome

            return [Outcome(state, iconst(7))]

        ex.bindings.bind_native("helper", native)
        outs = ex.run("f", [ivar("a")])
        assert outs[0].value == iconst(8)


class TestBudgets:
    def test_step_budget(self):
        from repro.symex import OutOfBudgetError

        ex = make_executor(
            "def f() -> int:\n"
            "    i = 0\n"
            "    while True:\n"
            "        i += 1\n"
            "    return i\n",
            max_steps=1000,
        )
        with pytest.raises(OutOfBudgetError):
            ex.run("f", [])

    def test_stats_populated(self):
        ex = make_executor(
            "def f(a: int) -> int:\n"
            "    if a > 0:\n"
            "        return 1\n"
            "    return 0\n"
        )
        ex.run("f", [ivar("a")])
        assert ex.stats.steps > 0
        assert ex.stats.forks >= 1
        assert ex.stats.paths == 2
