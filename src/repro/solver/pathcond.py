"""Persistent path conditions.

A path condition is the conjunction of the branch conditions one
symbolic-execution path has assumed, in assumption order. Paths fork
constantly and their conditions share long prefixes, so a
:class:`PathCondition` is an immutable node: its ``parent`` (the prefix),
its last ``condition`` and its ``length``. Assuming a condition or forking
a path is O(1), and two forks share every node of their common prefix.

The node also carries a slot for the solver's result-cache key (see
:meth:`repro.solver.solver.Solver.check`): a bit set over the distinct
formulas of the path, memoised per node, so a check costs O(1) key work
instead of hashing the whole path. The formula sequence itself is only
materialised (:meth:`PathCondition.formulas`) when a query is actually
dispatched to the sat core.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.solver.terms import BoolExpr


class PathCondition:
    """One node of a persistent path condition (the root is :data:`TRUE_PATH`).

    ``key_owner``/``key`` memoise the result-cache key of the path ending
    here for the one solver that asked last (its formula index is the
    owner); any other solver recomputes it.
    """

    __slots__ = ("parent", "condition", "length", "key_owner", "key")

    def __init__(self, parent: Optional["PathCondition"] = None,
                 condition: Optional[BoolExpr] = None):
        self.parent = parent
        self.condition = condition
        self.length = parent.length + 1 if parent is not None else 0
        self.key_owner = None
        self.key = 0

    def assume(self, condition: BoolExpr) -> "PathCondition":
        """This path with ``condition`` appended."""
        return PathCondition(self, condition)

    def assume_all(self, conditions: Iterable[BoolExpr]) -> "PathCondition":
        """This path with every one of ``conditions`` appended in order."""
        node = self
        for condition in conditions:
            node = PathCondition(node, condition)
        return node

    def formulas(self, start: int = 0) -> List[BoolExpr]:
        """The conditions from position ``start`` on, in assumption order."""
        out = []
        node = self
        for _ in range(self.length - start):
            out.append(node.condition)
            node = node.parent
        out.reverse()
        return out

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[BoolExpr]:
        return iter(self.formulas())

    def __repr__(self) -> str:
        return f"PathCondition({self.length} conditions)"


#: The empty path condition every path starts from.
TRUE_PATH = PathCondition()
