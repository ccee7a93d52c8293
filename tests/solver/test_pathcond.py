"""Persistent path conditions and the solver's result-cache key: set
semantics (order and repetition do not matter), exactness (different
sets never share a result), and per-solver memoisation on the node."""

from repro.solver import (
    TRUE_PATH,
    Solver,
    SolveResult,
    eq,
    ge,
    ivar,
    le,
)

x, y = ivar("x"), ivar("y")


def path(*conditions):
    return TRUE_PATH.assume_all(conditions)


class TestPathCondition:
    def test_forks_share_the_prefix(self):
        base = path(ge(x, 0), le(x, 9))
        left, right = base.assume(eq(x, 1)), base.assume(eq(x, 2))
        assert left.parent is base and right.parent is base
        assert len(base) == 2 and len(left) == 3
        assert list(left) == [ge(x, 0), le(x, 9), eq(x, 1)]

    def test_formulas_from_a_position(self):
        p = path(ge(x, 0), le(x, 9), eq(y, 3))
        assert p.formulas(1) == [le(x, 9), eq(y, 3)]
        assert p.formulas(3) == []
        assert TRUE_PATH.formulas() == []


class TestResultCacheKey:
    def test_condition_then_path_with_it_is_one_query(self):
        solver = Solver()
        p = path(ge(x, 0))
        assert solver.check(le(x, 5), path=p) is SolveResult.SAT
        model = solver.model()
        assert solver.check(path=p.assume(le(x, 5))) is SolveResult.SAT
        assert solver.num_checks == 1
        assert solver.model() is model

    def test_order_and_repetition_do_not_matter(self):
        solver = Solver()
        solver.check(path=path(ge(x, 0), le(x, 5)))
        solver.check(path=path(le(x, 5), ge(x, 0), le(x, 5)))
        solver.check(ge(x, 0), path=path(le(x, 5), ge(x, 0)))
        assert solver.num_checks == 1

    def test_different_sets_never_share_a_result(self):
        solver = Solver()
        p = path(ge(x, 0), le(x, 5))
        assert solver.check(eq(x, 3), path=p) is SolveResult.SAT
        assert solver.check(eq(x, 7), path=p) is SolveResult.UNSAT
        assert solver.check(path=p) is SolveResult.SAT
        assert solver.num_checks == 3

    def test_a_node_keyed_by_two_solvers_answers_each_correctly(self):
        p = path(ge(x, 0), le(x, 5))
        first, second = Solver(), Solver()
        assert first.check(path=p) is SolveResult.SAT
        # The second solver numbers the same formulas differently: were
        # the node's memoised key shared, its bits would name this query.
        assert second.check(eq(x, 9), ge(x, 0)) is SolveResult.SAT
        assert second.check(eq(x, 9), path=p) is SolveResult.UNSAT
        assert first.check(path=p.assume(eq(x, 2))) is SolveResult.SAT
        assert second.check(eq(x, 9), path=p.assume(eq(x, 2))) \
            is SolveResult.UNSAT
