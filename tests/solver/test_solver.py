"""Unit and property tests for the theory solver and the Solver facade."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.solver import (
    TRUE_PATH,
    Solver,
    SolveResult,
    and_,
    bvar,
    eq,
    eval_expr,
    ge,
    gt,
    iadd,
    iconst,
    imul,
    isub,
    ivar,
    le,
    lt,
    ne,
    not_,
    or_,
)
from repro.solver import sat

x, y, z = ivar("x"), ivar("y"), ivar("z")


def check(*formulas):
    solver = Solver()
    return solver.check(*formulas), solver


class TestBasicSat:
    def test_trivial_sat(self):
        result, solver = check(le(x, 5))
        assert result is SolveResult.SAT
        assert solver.model().get_int("x") <= 5

    def test_trivial_unsat(self):
        result, _ = check(le(x, 5), ge(x, 6))
        assert result is SolveResult.UNSAT

    def test_equalities(self):
        result, solver = check(eq(x, 5), eq(y, iadd(x, 2)))
        assert result is SolveResult.SAT
        model = solver.model()
        assert model.get_int("x") == 5 and model.get_int("y") == 7

    def test_equality_conflict(self):
        result, _ = check(eq(x, 5), eq(x, 6))
        assert result is SolveResult.UNSAT

    def test_chained_inequalities(self):
        result, solver = check(lt(x, y), lt(y, z), ge(x, 0), le(z, 2))
        assert result is SolveResult.SAT
        m = solver.model()
        assert 0 <= m.get_int("x") < m.get_int("y") < m.get_int("z") <= 2

    def test_chained_inequalities_unsat(self):
        result, _ = check(lt(x, y), lt(y, z), ge(x, 0), le(z, 1))
        assert result is SolveResult.UNSAT

    def test_disequality_forces_gap(self):
        result, solver = check(ge(x, 0), le(x, 2), ne(x, 0), ne(x, 1))
        assert result is SolveResult.SAT
        assert solver.model().get_int("x") == 2

    def test_disequality_exhausts_domain(self):
        result, _ = check(ge(x, 0), le(x, 1), ne(x, 0), ne(x, 1))
        assert result is SolveResult.UNSAT

    def test_var_to_var_disequality(self):
        result, solver = check(eq(x, y), ne(x, y))
        assert result is SolveResult.UNSAT

    def test_coefficient_constraints(self):
        result, solver = check(eq(iadd(imul(2, x), imul(3, y)), 12), ge(x, 0), ge(y, 0))
        assert result is SolveResult.SAT
        m = solver.model()
        assert 2 * m.get_int("x") + 3 * m.get_int("y") == 12

    def test_parity_infeasible(self):
        # 2x == 7 folds to false at construction already.
        result, _ = check(eq(imul(2, x), 7))
        assert result is SolveResult.UNSAT


class TestBooleanStructure:
    def test_disjunction_sat(self):
        result, solver = check(or_(eq(x, 1), eq(x, 2)), ne(x, 1))
        assert result is SolveResult.SAT
        assert solver.model().get_int("x") == 2

    def test_disjunction_unsat(self):
        result, _ = check(or_(eq(x, 1), eq(x, 2)), ne(x, 1), ne(x, 2))
        assert result is SolveResult.UNSAT

    def test_bool_vars(self):
        p, q = bvar("p"), bvar("q")
        result, solver = check(or_(p, q), not_(p))
        assert result is SolveResult.SAT
        assert solver.model().get_bool("q") is True

    def test_bool_conflict(self):
        p = bvar("p")
        result, _ = check(p, not_(p))
        assert result is SolveResult.UNSAT

    def test_mixed_bool_and_arith(self):
        p = bvar("p")
        result, solver = check(or_(and_(p, eq(x, 1)), and_(not_(p), eq(x, 2))), ge(x, 2))
        assert result is SolveResult.SAT
        m = solver.model()
        assert m.get_bool("p") is False and m.get_int("x") == 2

    def test_nested_disjunctions(self):
        formula = and_(
            or_(eq(x, 1), eq(x, 2), eq(x, 3)),
            or_(eq(y, 10), eq(y, 20)),
            eq(iadd(x, y), 23),
        )
        result, solver = check(formula)
        assert result is SolveResult.SAT
        m = solver.model()
        assert m.get_int("x") == 3 and m.get_int("y") == 20


class TestIncremental:
    def test_check_with_extra(self):
        solver = Solver()
        path = TRUE_PATH.assume_all([ge(x, 0), le(x, 10)])
        assert solver.check(eq(x, 5), path=path) is SolveResult.SAT
        assert solver.check(eq(x, 50), path=path) is SolveResult.UNSAT
        # Extra assumptions do not persist.
        assert solver.check(path=path) is SolveResult.SAT

    def test_result_cache_returns_same(self):
        solver = Solver()
        assert solver.check(eq(x, 5)) is SolveResult.SAT
        checks = solver.num_checks
        assert solver.check(eq(x, 5)) is SolveResult.SAT
        assert solver.num_checks == checks

    def test_model_requires_sat(self):
        solver = Solver()
        solver.check(le(x, 0), ge(x, 1))
        try:
            solver.model()
        except RuntimeError:
            pass
        else:
            raise AssertionError("expected RuntimeError")


class TestComplementRefutation:
    """A check whose extra literal the query already negates at top level
    is UNSAT without a sat-core dispatch, counted and cached as one."""

    @staticmethod
    def core_calls(monkeypatch):
        calls = []
        real = sat.check_formulas

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(sat, "check_formulas", counting)
        return calls

    def assert_refuted(self, solver, literal, path, calls):
        checks = solver.num_checks
        assert solver.check(literal, path=path) is SolveResult.UNSAT
        assert solver.num_checks == checks + 1
        assert calls == []
        try:
            solver.model()
        except RuntimeError:
            pass
        else:
            raise AssertionError("an UNSAT check left a model behind")
        # The repeat is a result-cache hit: no dispatch is counted.
        assert solver.check(literal, path=path) is SolveResult.UNSAT
        assert solver.num_checks == checks + 1
        assert calls == []

    def test_atom_negated_in_the_path(self, monkeypatch):
        calls = self.core_calls(monkeypatch)
        solver = Solver()
        a = le(x, 3)
        path = TRUE_PATH.assume_all([ge(y, 0), a, ne(z, 1)])
        assert solver.check(ge(y, 2), path=path) is SolveResult.SAT
        calls.clear()
        self.assert_refuted(solver, not_(a), path, calls)

    def test_bool_literal_negated_in_the_path(self, monkeypatch):
        calls = self.core_calls(monkeypatch)
        solver = Solver()
        flag = bvar("flag")
        path = TRUE_PATH.assume_all([not_(flag), le(x, 9)])
        self.assert_refuted(solver, flag, path, calls)

    def test_contradiction_nested_in_an_and_reaches_the_core(self, monkeypatch):
        calls = self.core_calls(monkeypatch)
        solver = Solver()
        a = le(x, 3)
        path = TRUE_PATH.assume(and_(ge(y, 0), a))
        assert solver.check(not_(a), path=path) is SolveResult.UNSAT
        assert len(calls) == 1 and solver.num_checks == 1

    def test_negation_outside_the_query_is_not_a_refutation(self, monkeypatch):
        calls = self.core_calls(monkeypatch)
        solver = Solver()
        a = le(x, 3)
        # ``a`` is known to the solver from an earlier query, but it is not
        # in this one: the check must still be decided by the core.
        assert solver.check(a) is SolveResult.SAT
        assert solver.check(not_(a), path=TRUE_PATH.assume(ge(x, 0))) \
            is SolveResult.SAT
        assert len(calls) == 2
        assert solver.model().get_int("x") >= 4


class TestLargeDomains:
    """Shapes matching the DNS encoding: spaced label codes with
    disequality sets (section 6.3)."""

    def test_label_code_gap_model(self):
        spacing = 1 << 16
        codes = [spacing * (i + 1) for i in range(5)]
        solver = Solver()
        gaps = [ne(x, code) for code in codes]
        assert solver.check(
            ge(x, 1), le(x, codes[-1] + spacing - 1), *gaps,
            gt(x, codes[1]), lt(x, codes[2]),
        ) is SolveResult.SAT
        value = solver.model().get_int("x")
        assert codes[1] < value < codes[2]

    def test_many_vars_ordered(self):
        solver = Solver()
        variables = [ivar(f"n{i}") for i in range(10)]
        ordered = [lt(a, b) for a, b in zip(variables, variables[1:])]
        assert solver.check(
            *ordered, ge(variables[0], 0), le(variables[-1], 9)
        ) is SolveResult.SAT
        values = [solver.model().get_int(f"n{i}") for i in range(10)]
        assert values == sorted(values) and len(set(values)) == 10


# -- exhaustive cross-checking against brute force ---------------------------

atom_st = st.builds(
    lambda maker, cx, cy, c: maker(iadd(imul(cx, x), imul(cy, y)), c),
    st.sampled_from([le, lt, eq, ne, ge, gt]),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-4, 4),
)

literal_st = st.one_of(atom_st, st.builds(lambda n: bvar(f"b{n}"), st.integers(0, 1)))

clause_st = st.lists(literal_st, min_size=1, max_size=3).map(lambda ls: or_(*ls))

formula_st = st.lists(clause_st, min_size=1, max_size=5).map(lambda cs: and_(*cs))


def brute_force_sat(formula):
    for vx, vy in itertools.product(range(-6, 7), repeat=2):
        for b0, b1 in itertools.product([False, True], repeat=2):
            model = {"x": vx, "y": vy, "b0": b0, "b1": b1}
            if eval_expr(formula, model):
                return True
    return False


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(formula_st)
    def test_solver_agrees_with_enumeration(self, formula):
        # Restrict the solver to the same finite domain as the enumeration.
        box = and_(ge(x, -6), le(x, 6), ge(y, -6), le(y, 6))
        solver = Solver()
        result = solver.check(box, formula)
        expected = brute_force_sat(and_(box, formula))
        if expected:
            assert result is SolveResult.SAT
            model = solver.model()
            filled = {
                name: model.as_dict().get(name, 0)
                for name in ("x", "y", "b0", "b1")
            }
            assert eval_expr(and_(box, formula), filled)
        else:
            assert result is SolveResult.UNSAT
