"""Differential test of the row-indexed difference-bound matrix.

:class:`FlatDiffBounds` is the earlier flat-dict ``DiffBounds``, kept
verbatim here as the reference: every ``add`` rebuilt the variable set
and re-closed over all variable pairs. Seeded random operation sequences
drive both implementations side by side and compare every bound, the
fact set and equality after each step. An ``add`` that reports the
system infeasible is compared on its return value only: both
implementations stop part-way through the closure then, and the
reference's partial state depends on set iteration order. Such a step
ends the sequence.
"""

import random
from typing import Dict, Optional, Tuple

import pytest

from repro.analysis.domains import ZERO, DiffBounds


class FlatDiffBounds:
    """The reference: one ``{(u, v): c}`` dict, closed in O(vars^2)."""

    __slots__ = ("_b",)

    def __init__(self, bounds: Optional[Dict[Tuple[str, str], int]] = None):
        self._b: Dict[Tuple[str, str], int] = dict(bounds) if bounds else {}

    def copy(self) -> "FlatDiffBounds":
        return FlatDiffBounds(self._b)

    def items(self):
        return self._b.items()

    def __eq__(self, other):
        return isinstance(other, FlatDiffBounds) and self._b == other._b

    def vars(self) -> set:
        names = set()
        for u, v in self._b:
            names.add(u)
            names.add(v)
        names.discard(ZERO)
        return names

    def bound(self, u: str, v: str) -> Optional[int]:
        if u == v:
            return 0
        return self._b.get((u, v))

    def add(self, u: str, v: str, c: int) -> bool:
        if u == v:
            return c >= 0
        back = self._b.get((v, u))
        if back is not None and back + c < 0:
            return False
        old = self._b.get((u, v))
        if old is not None and old <= c:
            return True
        self._b[(u, v)] = c
        names = self.vars() | {ZERO}
        for x in names:
            xu = self.bound(x, u)
            if xu is None:
                continue
            for y in names:
                vy = self.bound(v, y)
                if vy is None or x == y:
                    continue
                through = xu + c + vy
                cur = self._b.get((x, y))
                if cur is None or through < cur:
                    self._b[(x, y)] = through
                    rev = self._b.get((y, x))
                    if rev is not None and rev + through < 0:
                        return False
        return True

    def kill(self, var: str) -> None:
        if var == ZERO:
            return
        dead = [k for k in self._b if var in k]
        for k in dead:
            del self._b[k]

    def join(self, other: "FlatDiffBounds") -> "FlatDiffBounds":
        out: Dict[Tuple[str, str], int] = {}
        for key, c in self._b.items():
            oc = other._b.get(key)
            if oc is not None:
                out[key] = max(c, oc)
        return FlatDiffBounds(out)


VARS = (ZERO, "a", "b", "c", "d", "e")


def assert_same(fast: DiffBounds, ref: FlatDiffBounds) -> None:
    for u in VARS:
        for v in VARS:
            assert fast.bound(u, v) == ref.bound(u, v), (u, v)
    assert set(fast.items()) == set(ref.items())
    assert fast == DiffBounds(dict(ref.items()))


def widen_drop(fast_join: DiffBounds, ref_join: FlatDiffBounds,
               fast_old: DiffBounds, ref_old: FlatDiffBounds):
    """The guard domain's widening step: of the joined facts, keep only
    those whose bound the previous state already had (not re-closed)."""
    kept = {key: c for key, c in ref_join.items()
            if ref_old.bound(*key) == c}
    return fast_join.unchanged_since(fast_old), FlatDiffBounds(kept)


def random_add(rng: random.Random):
    u, v = rng.sample(VARS, 2)
    return u, v, rng.randint(-4, 6)


def run_sequence(seed: int, steps: int = 60) -> int:
    """One random sequence; returns how many steps stayed feasible."""
    rng = random.Random(seed)
    fast, ref = DiffBounds(), FlatDiffBounds()
    # A second pair of states to join and widen against.
    other_fast, other_ref = DiffBounds(), FlatDiffBounds()
    for step in range(steps):
        op = rng.choice(("add", "add", "add", "kill", "join", "copy",
                         "widen", "other"))
        if op == "add":
            u, v, c = random_add(rng)
            ref_ok = ref.copy().add(u, v, c)
            fast_ok = fast.add(u, v, c)
            assert fast_ok == ref_ok, (seed, step, u, v, c)
            if not ref_ok:
                return step
            assert ref.add(u, v, c)
        elif op == "kill":
            var = rng.choice(VARS)
            fast.kill(var)
            ref.kill(var)
        elif op == "join":
            fast = fast.join(other_fast)
            ref = ref.join(other_ref)
        elif op == "copy":
            fast_copy, ref_copy = fast.copy(), ref.copy()
            u, v, c = random_add(rng)
            # Mutating a copy never shows through to the original.
            if ref_copy.copy().add(u, v, c):
                assert fast_copy.add(u, v, c) and ref_copy.add(u, v, c)
            assert_same(fast_copy, ref_copy)
        elif op == "widen":
            fast, ref = widen_drop(fast.join(other_fast),
                                   ref.join(other_ref), fast, ref)
        else:
            u, v, c = random_add(rng)
            if other_ref.copy().add(u, v, c):
                assert other_fast.add(u, v, c) and other_ref.add(u, v, c)
            assert_same(other_fast, other_ref)
        assert_same(fast, ref)
    return steps


@pytest.mark.parametrize("seed", range(300))
def test_row_dbm_matches_flat_reference(seed):
    run_sequence(seed)


def test_sequences_exercise_long_feasible_runs():
    """The random walk must reach deep, closed matrices, not only stop
    at the first contradiction."""
    lengths = [run_sequence(seed) for seed in range(300)]
    assert sum(1 for n in lengths if n >= 30) >= 150


def test_equality_after_a_kill_empties_a_row():
    fast, ref = DiffBounds(), FlatDiffBounds()
    for db in (fast, ref):
        assert db.add("a", "b", 1)
        assert db.add("c", ZERO, 2)
        db.kill("b")  # a's only fact goes: no empty row may linger
    assert_same(fast, ref)
    assert fast == DiffBounds({("c", ZERO): 2})
    fresh = DiffBounds()
    fresh.add("c", ZERO, 2)
    assert fast == fresh


def test_infeasible_add_agrees_on_the_return_value():
    fast, ref = DiffBounds(), FlatDiffBounds()
    for db in (fast, ref):
        assert db.add("a", "b", -1)
        assert db.add("b", "c", -1)
    assert fast.add("c", "a", 1) == ref.add("c", "a", 1) is False
