"""Per-path execution state."""

from __future__ import annotations

from typing import Optional

from repro.solver.pathcond import TRUE_PATH, PathCondition
from repro.solver.terms import BoolExpr
from repro.symex.memory import Memory


class PathState:
    """One explored path: its memory and accumulated path condition.

    Register frames live in the executor's call recursion, not here — the
    state carries only what must survive across calls and what forking must
    duplicate. ``pc`` is a persistent :class:`PathCondition` node, so
    :meth:`fork` and :meth:`assume` are O(1) and forks share their prefix.
    """

    __slots__ = ("memory", "pc", "witness")

    def __init__(self, memory: Optional[Memory] = None,
                 pc: PathCondition = TRUE_PATH):
        self.memory = memory if memory is not None else Memory()
        self.pc = pc
        #: A model known to satisfy ``pc`` (or None). Pure optimisation: the
        #: executor evaluates branch conditions under it to skip solver
        #: calls for the side the witness already demonstrates feasible.
        self.witness: Optional[dict] = None

    def fork(self) -> "PathState":
        forked = PathState(self.memory.clone(), self.pc)
        forked.witness = self.witness
        return forked

    def assume(self, condition: BoolExpr) -> None:
        self.pc = PathCondition(self.pc, condition)

    def __repr__(self):
        return f"PathState({len(self.pc)} conditions, {len(self.memory)} blocks)"
