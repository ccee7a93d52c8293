"""Substrate micro-benchmarks: solver, executor, differential tester.

Not a paper artifact — these pin the performance of the layers everything
else is built on, so regressions in the SMT-lite solver or the executor are
visible independently of the end-to-end pipeline numbers.
"""

from repro.frontend import compile_source
from repro.solver import SolveResult, Solver, and_, eq, ge, isub, ivar, le, lt, ne, or_
from repro.symex import Executor
from repro.testing import differential_test
from repro.zonegen import evaluation_zone


def test_solver_conjunction_sat(benchmark):
    x = [ivar(f"x{i}") for i in range(12)]

    def check():
        ordered = [lt(a, b) for a, b in zip(x, x[1:])]
        return Solver().check(*ordered, ge(x[0], 0), le(x[-1], 100), ne(x[3], 17))

    result = benchmark(check)
    assert result is SolveResult.SAT


def test_solver_disjunction_search(benchmark):
    x, y = ivar("x"), ivar("y")
    formula = and_(
        or_(*[eq(x, k) for k in range(0, 40, 4)]),
        or_(*[eq(y, k) for k in range(1, 41, 4)]),
        eq(x, isub(y, 1)),
    )

    def check():
        return Solver().check(formula, ge(x, 8))

    result = benchmark(check)
    assert result is SolveResult.SAT


LOOP_SOURCE = """
def f(xs: list[int], limit: int) -> int:
    total = 0
    for x in xs:
        if x < limit:
            total += x
    return total
"""


def test_executor_symbolic_loop(benchmark):
    from repro.solver import iconst, ivar
    from repro.symex import HeapLoader, PathState

    module = compile_source(LOOP_SOURCE)

    def run():
        executor = Executor([module])
        state = PathState()
        lst = HeapLoader(state.memory).load([1, 5, 9, 13])
        return executor.run("f", [lst, ivar("limit")], state=state)

    outcomes = benchmark(run)
    assert len(outcomes) > 1


def test_differential_tester_throughput(benchmark):
    zone = evaluation_zone()
    result = benchmark.pedantic(
        differential_test, args=(zone, "verified"), rounds=3, iterations=1
    )
    assert result.clean
    print(f"\n[{result.queries_run} queries cross-checked against 2 oracles]")
