"""The panic-pruning pass: what it elides, what it refuses to touch."""

from repro.analysis import prune_function, prune_module
from repro.frontend import compile_module
from repro.ir import (
    Alloca,
    Br,
    Call,
    CondBr,
    ConstInt,
    ElidedGuardBr,
    Function,
    ICmp,
    Load,
    Panic,
    Register,
    Ret,
    Store,
    validate_function,
)
from repro.ir.types import INT, ListType, PointerType, VOID


def guarded_index(bound_check: bool):
    """f(xs): i = 0; [if i < len(xs):] guard i < len(xs) else panic.

    With ``bound_check`` the flow proves the guard; without it the guard's
    truth is unknown and pruning must leave it alone.
    """
    xs_t = PointerType(ListType(INT))
    fn = Function("f", [("xs", xs_t)], VOID)
    entry = fn.new_block("entry")
    check = fn.new_block("check")
    guard = fn.new_block("guard")
    ok = fn.new_block("ok")
    panic = fn.new_block("panic")
    done = fn.new_block("done")

    ln = Register("len")
    entry.append(Call(ln, "list.len", [Register("xs")]))
    entry.terminate(Br(check.label))

    c0 = Register("inbounds")
    check.append(ICmp(c0, "sgt", ln, ConstInt(0)))
    if bound_check:
        check.terminate(CondBr(c0, guard.label, done.label))
    else:
        check.terminate(Br(guard.label))

    # The frontend-style guard: panic when 0 >= len(xs).
    toobig = Register("toobig")
    guard.append(ICmp(toobig, "sge", ConstInt(0), ln))
    guard.terminate(CondBr(toobig, panic.label, ok.label))
    panic.terminate(Panic("index-out-of-bounds", "f: index 0"))
    ok.terminate(Br(done.label))
    done.terminate(Ret())
    return fn, guard.label, panic.label


class TestPruneFunction:
    def test_proved_guard_is_elided_and_panic_swept(self):
        fn, guard_label, panic_label = guarded_index(bound_check=True)
        report = prune_function(fn)
        assert report.guards_total == 1
        assert report.guards_pruned == 1
        assert report.by_kind == {"index-out-of-bounds": 1}
        assert report.panic_blocks_removed == 1
        term = fn.blocks[guard_label].terminator
        assert isinstance(term, ElidedGuardBr)
        assert term.panic_on_true is True
        assert term.kind == "index-out-of-bounds"
        assert term.message == "f: index 0"
        assert term.site == f"f:{guard_label}"
        assert panic_label not in fn.blocks
        validate_function(fn)

    def test_unproven_guard_is_kept(self):
        fn, guard_label, panic_label = guarded_index(bound_check=False)
        report = prune_function(fn)
        assert report.guards_pruned == 0
        assert isinstance(fn.blocks[guard_label].terminator, CondBr)
        assert panic_label in fn.blocks

    def test_pruning_is_deterministic(self):
        fn_a, _, _ = guarded_index(bound_check=True)
        fn_b, _, _ = guarded_index(bound_check=True)
        prune_function(fn_a)
        prune_function(fn_b)
        from repro.ir import print_function

        assert print_function(fn_a) == print_function(fn_b)


class TestPruneNameops:
    def test_is_prefix_guard_counts_golden(self):
        """The motivating example: ``is_prefix`` checks
        ``len(prefix) > len(name)`` up front, so 7 of its 9 loop-body
        guards (negative-index and too-big on both lists, plus the
        post-loop indexing) are statically dead."""
        from repro.engine.gopy import nameops

        module = compile_module(nameops)
        report = prune_module(module)
        by_fn = {r.function: r for r in report.functions}
        is_prefix = by_fn["is_prefix"]
        assert is_prefix.guards_total == 9
        assert is_prefix.guards_pruned == 7
        assert not is_prefix.bailed

    def test_module_report_aggregates(self):
        from repro.engine.gopy import nameops

        module = compile_module(nameops)
        report = prune_module(module)
        assert report.guards_total == sum(
            f.guards_total for f in report.functions
        )
        assert report.guards_pruned >= 7
        data = report.to_dict()
        assert data["guards_pruned"] == report.guards_pruned
        # Only functions the pass actually changed (or bailed on) are
        # itemised in the JSON form.
        assert all(f["guards_pruned"] or f["bailed"] for f in data["functions"])

    def test_pruned_module_still_validates(self):
        from repro.engine.gopy import nameops
        from repro.ir import validate_module

        module = compile_module(nameops)
        prune_module(module)
        validate_module(module)


class TestPruneRedecodes:
    def test_a_function_pruned_after_running_runs_its_elided_guard(self):
        """Decoding happens on first execution and is kept on the
        function; pruning rewrites the blocks in place, so the next run
        must execute the ElidedGuardBr, not the stale CondBr."""
        from repro.ir import Module
        from repro.solver import ge, ivar, le
        from repro.symex import Executor, ListVal, PathState

        fn, _, _ = guarded_index(bound_check=True)
        module = Module("m")
        module.add_function(fn)

        def run():
            executor = Executor([module])
            state = PathState()
            xs = state.memory.alloc(
                ListVal((ivar("x0"), ivar("x1")), ivar("n")))
            outcomes = executor.run(
                "f", [xs], state=state, pre=[ge(ivar("n"), 0), le(ivar("n"), 2)])
            return executor.stats, outcomes

        before, outcomes = run()
        assert fn.decoded is not None
        assert before.panic_guard_checks > 0 and before.pruned_guard_hits == 0
        assert not any(out.is_panic for out in outcomes)
        prune_function(fn)
        after, outcomes = run()
        assert after.panic_guard_checks == 0 and after.pruned_guard_hits == 1
        assert not any(out.is_panic for out in outcomes)
