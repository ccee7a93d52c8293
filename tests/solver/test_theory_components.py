"""Differential tests of the per-component theory memo.

``TheoryCache.check`` splits an atom set into components that share no
variables and decides each one on its own. The whole-set answer of
``theory.check_conjunction`` is the oracle: the same verdict, and the same
model when SAT.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import verify_engine
from repro.solver import eq, eval_expr, ge, iadd, imul, ivar, le, lt, ne
from repro.solver import theory
from repro.solver.sat import TheoryCache, _components
from repro.solver.terms import Atom, IntExpr, LE
from repro.solver.theory import TheoryResult, check_conjunction
from repro.zonegen import evaluation_zone

x, y, u, v = ivar("x"), ivar("y"), ivar("u"), ivar("v")


class TestSplit:
    def test_components_partition_by_shared_variables(self):
        chain = {le(x, y), le(y, 3)}
        pair = {lt(u, v)}
        lone = {ne(ivar("w"), 4)}
        parts = _components(frozenset(chain | pair | lone))
        assert len(parts) == 3
        assert set(parts) == {frozenset(chain), frozenset(pair), frozenset(lone)}

    def test_merging_joins_groups_met_in_any_order(self):
        # x..y and u..v start apart; the last atom bridges them.
        atoms = frozenset({le(x, 1), le(y, 2), le(u, 3), le(v, 4),
                           le(x, y), le(u, v), le(y, u)})
        assert _components(atoms) == [atoms]

    def test_constant_atoms_form_one_component(self):
        true_le = Atom(LE, IntExpr((), -1))
        false_le = Atom(LE, IntExpr((), 1))
        parts = _components(frozenset({true_le, false_le, le(x, 0)}))
        assert frozenset({true_le, false_le}) in parts
        assert frozenset({le(x, 0)}) in parts
        verdict, model = TheoryCache().check(frozenset({false_le, le(x, 0)}))
        assert verdict is TheoryResult.UNSAT and model is None


class TestVerdicts:
    def test_one_unsat_component_makes_the_query_unsat(self):
        atoms = frozenset({ge(x, 0), le(x, 5), ge(u, 3), le(u, 2)})
        cache = TheoryCache()
        assert cache.check(atoms) == (TheoryResult.UNSAT, None)
        assert check_conjunction(atoms)[0] is TheoryResult.UNSAT

    def test_sat_components_merge_their_models(self):
        atoms = frozenset({eq(x, 4), lt(y, x), ge(y, 2), eq(u, iadd(v, 1)),
                           ge(v, 7)})
        verdict, model = TheoryCache().check(atoms)
        assert verdict is TheoryResult.SAT
        assert model == check_conjunction(atoms)[1]
        assert model["x"] == 4 and 2 <= model["y"] < 4
        assert model["u"] == model["v"] + 1 and model["v"] >= 7

    def test_unknown_component_makes_the_query_unknown(self, monkeypatch):
        unknown = frozenset({le(u, 0)})

        def decide(atoms):
            if atoms == unknown:
                return TheoryResult.UNKNOWN, None
            return check_conjunction(atoms)

        monkeypatch.setattr(theory, "check_conjunction", decide)
        cache = TheoryCache()
        assert cache.check(unknown | {ge(x, 0)}) == (TheoryResult.UNKNOWN, None)
        # An UNSAT component still wins over an UNKNOWN one.
        assert cache.check(unknown | {ge(x, 1), le(x, 0)}) \
            == (TheoryResult.UNSAT, None)

    def test_components_are_memoised_across_queries(self):
        cache = TheoryCache()
        shared = {ge(x, 0), le(x, 9)}
        cache.check(frozenset(shared | {le(u, 1)}))
        assert (cache.hits, cache.misses) == (0, 2)
        cache.check(frozenset(shared | {le(u, 2)}))
        assert (cache.hits, cache.misses) == (1, 3)


# -- property: independent groups over disjoint variables ---------------------

def atom_over(a, b):
    return st.builds(
        lambda maker, ca, cb, c: maker(iadd(imul(ca, a), imul(cb, b)), c),
        st.sampled_from([le, lt, eq, ne, ge]),
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.integers(-4, 4),
    ).filter(lambda atom: isinstance(atom, Atom))


def group_over(a, b):
    box = [ge(a, -6), le(a, 6), ge(b, -6), le(b, 6)]
    return st.lists(atom_over(a, b), min_size=1, max_size=4).map(
        lambda atoms: atoms + box)


class TestIndependentGroups:
    @settings(max_examples=200, deadline=None)
    @given(group_over(x, y), group_over(u, v))
    def test_component_answer_matches_the_whole_set(self, first, second):
        atoms = frozenset(first + second)
        verdict, model = TheoryCache().check(atoms)
        whole_verdict, whole_model = check_conjunction(atoms)
        assert verdict is whole_verdict
        parts = [check_conjunction(frozenset(group)) for group in (first, second)]
        if any(part[0] is TheoryResult.UNSAT for part in parts):
            assert verdict is TheoryResult.UNSAT and model is None
        elif verdict is TheoryResult.SAT:
            assert model == {**parts[0][1], **parts[1][1]}
            assert model == whole_model
            assert all(eval_expr(atom, model) for atom in atoms)


# -- differential over the atom sets two real verifies meet --------------------

@pytest.fixture(scope="module")
def verify_atom_sets():
    """Every atom set ``TheoryCache.check`` met while verifying v1.0 (BUG)
    and verified (VERIFIED) on the evaluation zone."""
    seen = {}
    real = TheoryCache.check

    def recording(self, atoms):
        seen.setdefault(atoms, None)
        return real(self, atoms)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TheoryCache, "check", recording)
        verdicts = {version: verify_engine(evaluation_zone(), version).verdict
                    for version in ("v1.0", "verified")}
    assert verdicts == {"v1.0": "BUG", "verified": "VERIFIED"}
    return list(seen)


def test_verify_atom_sets_agree_with_the_whole_set_oracle(verify_atom_sets):
    assert len(verify_atom_sets) > 100
    assert max(len(_components(atoms)) for atoms in verify_atom_sets) >= 2
    cache = TheoryCache()
    verdicts = set()
    for atoms in verify_atom_sets:
        verdict, model = cache.check(atoms)
        expected, expected_model = check_conjunction(atoms)
        assert verdict is expected, sorted(map(repr, atoms))
        if verdict is TheoryResult.SAT:
            assert model == expected_model, sorted(map(repr, atoms))
        verdicts.add(verdict)
    assert verdicts == {TheoryResult.SAT, TheoryResult.UNSAT}
