"""Unit tests for the solver term language."""

import gc
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.incremental.serialize import term_from_json, term_to_json
from repro.solver import terms
from repro.solver.terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolConst,
    BoolLit,
    IntExpr,
    Or,
    EQ,
    LE,
    NE,
    NonLinearError,
    and_,
    beq,
    bfalse,
    btrue,
    bvar,
    eq,
    eval_expr,
    free_vars,
    ge,
    gt,
    iadd,
    iconst,
    implies,
    imul,
    ineg,
    isub,
    ivar,
    le,
    lt,
    ne,
    not_,
    or_,
    substitute,
)

x, y, z = ivar("x"), ivar("y"), ivar("z")


class TestIntExpr:
    def test_const_folding(self):
        assert iadd(iconst(2), iconst(3)) == iconst(5)

    def test_add_collects_coefficients(self):
        expr = iadd(iadd(x, x), y)
        assert dict(expr.coeffs) == {"x": 2, "y": 1}

    def test_sub_cancels(self):
        assert isub(iadd(x, 3), x) == iconst(3)

    def test_mul_by_const(self):
        expr = imul(3, iadd(x, 1))
        assert dict(expr.coeffs) == {"x": 3}
        assert expr.const == 3

    def test_mul_nonlinear_rejected(self):
        with pytest.raises(NonLinearError):
            imul(x, y)

    def test_mul_zero(self):
        assert imul(0, iadd(x, y)) == iconst(0)

    def test_int_coercion(self):
        assert iadd(x, 5).const == 5

    def test_is_var(self):
        assert x.is_var and x.var_name == "x"
        assert not iadd(x, 1).is_var
        assert not imul(2, x).is_var

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            iconst(True)


class TestAtoms:
    def test_le_normal_form(self):
        atom = le(x, 5)
        assert isinstance(atom, Atom) and atom.kind == LE
        assert atom.expr == isub(x, 5)

    def test_lt_over_ints(self):
        # x < 5 over ints is x <= 4.
        assert lt(x, 5) == le(x, 4)

    def test_gt_ge_swap(self):
        assert gt(x, y) == lt(y, x)
        assert ge(x, y) == le(y, x)

    def test_constant_comparisons_fold(self):
        assert le(3, 5) == btrue()
        assert lt(5, 5) == bfalse()
        assert eq(4, 4) == btrue()
        assert ne(4, 4) == bfalse()

    def test_gcd_normalisation_le(self):
        # 2x <= 5 over ints is x <= 2.
        assert le(imul(2, x), 5) == le(x, 2)

    def test_gcd_normalisation_eq_infeasible(self):
        # 2x == 5 has no integer solution.
        assert eq(imul(2, x), 5) == bfalse()
        assert ne(imul(2, x), 5) == btrue()

    def test_eq_sign_canonical(self):
        assert eq(x, y) == eq(y, x)
        assert ne(x, y) == ne(y, x)


class TestBooleanStructure:
    def test_and_flattens_and_dedups(self):
        formula = and_(le(x, 1), and_(le(x, 1), le(y, 2)))
        assert formula == and_(le(x, 1), le(y, 2))

    def test_or_absorbing(self):
        assert or_(le(x, 1), btrue()) == btrue()
        assert and_(le(x, 1), bfalse()) == bfalse()

    def test_empty_connectives(self):
        assert and_() == btrue()
        assert or_() == bfalse()

    def test_complement_shortcut(self):
        p = bvar("p")
        assert and_(p, not_(p)) == bfalse()
        assert or_(p, not_(p)) == btrue()

    def test_atom_complement_shortcut(self):
        atom = le(x, 1)
        assert and_(atom, not_(atom)) == bfalse()

    def test_not_le_integral(self):
        # not(x <= 1) is x >= 2.
        assert not_(le(x, 1)) == ge(x, 2)

    def test_not_eq_is_ne(self):
        assert not_(eq(x, y)) == ne(x, y)
        assert not_(ne(x, y)) == eq(x, y)

    def test_double_negation(self):
        for formula in (le(x, 1), eq(x, 1), bvar("p"), and_(le(x, 1), bvar("p"))):
            assert not_(not_(formula)) == formula

    def test_implies(self):
        assert implies(bfalse(), bvar("p")) == btrue()

    def test_nnf_invariant(self):
        # Negating a conjunction produces a disjunction of negations.
        formula = not_(and_(le(x, 1), eq(y, 2)))
        assert formula == or_(ge(x, 2), ne(y, 2))


class TestSubstitutionEvaluation:
    def test_substitute_int(self):
        formula = le(iadd(x, y), 5)
        assert substitute(formula, {"x": iconst(3)}) == le(y, 2)

    def test_substitute_with_plain_int(self):
        assert substitute(le(x, 5), {"x": 7}) == bfalse()

    def test_substitute_bool(self):
        p = bvar("p")
        assert substitute(p, {"p": True}) == btrue()
        assert substitute(not_(p), {"p": True}) == bfalse()

    def test_substitute_renames(self):
        assert substitute(le(x, y), {"x": ivar("a")}) == le(ivar("a"), y)

    def test_eval(self):
        formula = and_(le(x, 5), ne(y, 0), bvar("p"))
        assert eval_expr(formula, {"x": 5, "y": 1, "p": True}) is True
        assert eval_expr(formula, {"x": 6, "y": 1, "p": True}) is False
        assert eval_expr(formula, {"x": 5, "y": 0, "p": True}) is False
        assert eval_expr(formula, {"x": 5, "y": 1, "p": False}) is False

    def test_free_vars(self):
        formula = and_(le(iadd(x, y), 5), bvar("p"))
        assert free_vars(formula) == {"x", "y", "p"}

    def test_beq(self):
        p, q = bvar("p"), bvar("q")
        formula = beq(p, q)
        assert eval_expr(formula, {"p": True, "q": True}) is True
        assert eval_expr(formula, {"p": True, "q": False}) is False


int_expr_st = st.builds(
    lambda c, cx, cy: IntExprHelper(c, cx, cy),
    st.integers(-20, 20),
    st.integers(-3, 3),
    st.integers(-3, 3),
)


class IntExprHelper:
    def __init__(self, c, cx, cy):
        self.expr = iadd(iadd(imul(cx, x), imul(cy, y)), c)
        self.fn = lambda vx, vy: cx * vx + cy * vy + c


class TestAlgebraicProperties:
    @given(int_expr_st, int_expr_st, st.integers(-50, 50), st.integers(-50, 50))
    def test_eval_homomorphism(self, a, b, vx, vy):
        model = {"x": vx, "y": vy}
        assert eval_expr(iadd(a.expr, b.expr), model) == a.fn(vx, vy) + b.fn(vx, vy)
        assert eval_expr(isub(a.expr, b.expr), model) == a.fn(vx, vy) - b.fn(vx, vy)

    @given(int_expr_st, int_expr_st, st.integers(-50, 50), st.integers(-50, 50))
    def test_comparison_semantics(self, a, b, vx, vy):
        model = {"x": vx, "y": vy}
        va, vb = a.fn(vx, vy), b.fn(vx, vy)
        assert eval_expr(le(a.expr, b.expr), model) == (va <= vb)
        assert eval_expr(lt(a.expr, b.expr), model) == (va < vb)
        assert eval_expr(eq(a.expr, b.expr), model) == (va == vb)
        assert eval_expr(ne(a.expr, b.expr), model) == (va != vb)

    @given(int_expr_st, int_expr_st, st.integers(-50, 50), st.integers(-50, 50))
    def test_negation_semantics(self, a, b, vx, vy):
        model = {"x": vx, "y": vy}
        for make in (le, lt, eq, ne):
            formula = make(a.expr, b.expr)
            assert eval_expr(not_(formula), model) == (not eval_expr(formula, model))


class TestHashConsing:
    """At most one live instance per structure, so ``==`` is ``is``."""

    def test_equal_constructions_are_identical(self):
        assert iadd(x, 1) is iadd(1, x)
        assert isub(iadd(x, y), y) is x
        assert le(iadd(x, 1), y) is le(x, isub(y, 1))
        assert lt(x, y) is le(iadd(x, 1), y)
        assert eq(x, y) is eq(y, x)
        assert ne(x, y) is not_(eq(x, y))
        assert not_(le(x, y)) is lt(y, x)
        a, b = le(x, 3), ne(y, z)
        assert and_(a, b) is and_(a, b)
        assert or_(a, b) is or_(a, b)
        assert and_(a, b) is not and_(b, a)  # argument order is structure
        assert substitute(le(x, z), {"z": y}) is le(x, y)
        assert substitute(and_(bvar("p"), lt(z, 4)), {"z": y}) is and_(
            bvar("p"), lt(y, 4))

    @given(st.integers(-20, 20), st.integers(-3, 3), st.integers(-3, 3))
    def test_equal_sums_are_identical(self, c, cx, cy):
        left = iadd(iadd(imul(cx, x), imul(cy, y)), c)
        right = iadd(c, iadd(imul(cy, y), imul(cx, x)))
        assert left is right
        assert le(left, z) is le(right, z)

    def test_double_negation_is_identity(self):
        for formula in (le(x, y), lt(iadd(x, 2), imul(3, y)), eq(x, 4),
                        ne(x, y), bvar("p"), not_(bvar("q")), TRUE):
            assert not_(not_(formula)) is formula

    def test_negation_is_memoised(self):
        atom = le(iadd(x, 7), y)
        assert atom._neg is None
        negated = not_(atom)
        assert atom._neg is negated
        assert not_(atom) is negated

    @pytest.mark.parametrize("term", [
        iadd(imul(2, x), -5), TRUE, FALSE, bvar("p"), not_(bvar("p")),
        le(x, y), eq(x, 3), ne(x, z),
        and_(le(x, y), bvar("p")), or_(eq(x, 1), ne(y, 2)),
    ], ids=repr)
    def test_round_trips_return_the_interned_term(self, term):
        assert pickle.loads(pickle.dumps(term)) is term
        assert term_from_json(term_to_json(term)) is term

    def test_dropped_terms_leave_the_table(self):
        def probes():
            return [key for key in list(terms._TABLE.keys())
                    if "weak_probe" in repr(key)]

        probe = le(ivar("weak_probe"), 0)
        negated = not_(probe)  # the memo links the pair in a cycle
        assert len(probes()) == 4  # two atoms, two expressions
        del probe, negated
        gc.collect()
        assert probes() == []

    def test_hashes_stay_structural(self):
        expr = iadd(imul(2, x), 1)
        assert hash(expr) == hash(((("x", 2),), 1))
        assert hash(TRUE) == hash(("bconst", True))
        assert hash(bvar("p")) == hash(("blit", "p", True))
        atom = le(x, y)
        assert hash(atom) == hash(("atom", LE, isub(x, y)))
        conj = and_(atom, bvar("p"))
        assert hash(conj) == hash(("And", conj.args))
        disj = or_(atom, bvar("p"))
        assert hash(disj) == hash(("Or", disj.args))

    def test_no_structural_eq(self):
        for cls in (IntExpr, BoolConst, BoolLit, Atom, And, Or):
            assert cls.__eq__ is object.__eq__, cls
