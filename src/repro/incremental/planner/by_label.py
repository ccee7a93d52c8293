"""The historical query planner: one unit per below-apex subtree.

This is the behaviour PRs 1–8 shipped, lifted verbatim behind the
:class:`~repro.incremental.planner.protocol.QueryPlanner` protocol: the
plan is exactly the :class:`~repro.incremental.delta.Partition` split
(``apex``, ``outside``, ``miss``, one ``sub:<label>`` per apex child), unit
digests are exactly :func:`repro.incremental.delta.partition_digest`, and
a delta's affected set is exactly the digest diff the incremental engine
has always replayed against. It stays the default planner and the
reference oracle the equivalence-class planner is bit-identity-tested
against.
"""

from __future__ import annotations

from typing import List, Optional

from repro.incremental.planner.protocol import (
    BY_LABEL,
    KIND_PARTITION,
    PlanUnit,
    QueryPlanner,
)


class ByLabelPlanner(QueryPlanner):
    """One verification unit per query-space partition (PR-1 behaviour)."""

    name = BY_LABEL

    def __init__(self) -> None:
        self._zone = None

    # -- protocol ----------------------------------------------------------

    def plan(self, zone) -> List[PlanUnit]:
        from repro.incremental import delta as delta_mod

        self._zone = zone
        return [
            PlanUnit(
                id=part.key,
                kind=KIND_PARTITION,
                part_key=part.key,
                members=(part.key,),
            )
            for part in delta_mod._zone_partitions(zone)
        ]

    def affected(self, delta) -> List[str]:
        from repro.engine.encoding import ZoneEncoder
        from repro.incremental import delta as delta_mod

        if self._zone is None:
            raise ValueError("affected() requires a prior plan() call")
        new_zone = delta.apply(self._zone)
        changed = delta_mod._affected_partitions(
            ZoneEncoder(self._zone), ZoneEncoder(new_zone)
        )
        self._zone = new_zone
        return changed

    def unit_digest(self, zone, unit: PlanUnit) -> str:
        from repro.engine.encoding import ZoneEncoder
        from repro.incremental import delta as delta_mod

        return delta_mod.partition_digest(ZoneEncoder(zone), unit.part_key)

    def notify_delta(self, delta) -> None:
        # Stateless with respect to verification: the incremental engine
        # re-digests every partition each run, so the only state worth
        # advancing is the snapshot affected() diffs against.
        if self._zone is not None:
            self._zone = delta.apply(self._zone)

    def unit_of_name(self, zone, name) -> Optional[str]:
        from repro.incremental import delta as delta_mod

        return delta_mod._partition_of_name(zone, name)
