"""The query-planning protocol: how a verification run splits the query space.

Since PR 1 the query space of one verification run has been partitioned by
the first below-apex label (the :class:`~repro.incremental.delta.Partition`
keys ``apex``/``outside``/``miss``/``sub:<label>``), which produces one verification unit per apex child — linear in zone size.
This module promotes that choice to a first-class, pluggable abstraction:

- a :class:`QueryPlanner` turns a zone into an ordered list of
  :class:`PlanUnit`\\ s, each describing one restricted symbolic run;
- :class:`~repro.incremental.planner.by_label.ByLabelPlanner` reproduces
  the historical per-subtree behaviour exactly (it is the default and the
  reference oracle);
- :class:`~repro.incremental.planner.ec.ECPlanner` collapses behaviourally
  identical subtrees into equivalence classes and verifies one
  representative per class (Groot's label-graph idea), which is what makes
  million-record zones tractable.

The planner choice travels in ``VerifyOptions.planner`` (``"by-label"`` or
``"equivalence-class"``) and threads through :class:`repro.Session`, the
:class:`~repro.incremental.engine.IncrementalVerifier`, the parallel
executor and the verdict-cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.solver import eq, ge

#: Canonical planner names (the ``VerifyOptions.planner`` vocabulary).
BY_LABEL = "by-label"
EQUIVALENCE_CLASS = "equivalence-class"
PLANNERS = (BY_LABEL, EQUIVALENCE_CLASS)

#: PlanUnit kinds. ``partition`` units are the by-label planner's (and the
#: ``full`` fallback's); the rest are equivalence-class kinds.
KIND_PARTITION = "partition"
KIND_APEX = "apex"
KIND_OUTSIDE = "outside"
KIND_MISS = "miss"
KIND_STAR = "star"
KIND_SUB = "sub"


@dataclass(frozen=True)
class PlanUnit:
    """One verification unit of a query plan.

    ``part_key`` names the *representative* restriction the symbolic run
    uses (a :class:`~repro.incremental.delta.Partition` key such as
    ``sub:www``, or the planner-level keys ``gap``/``star``);
    ``members`` lists everything the unit covers — for by-label units the
    single partition key, for equivalence classes every member top label.
    ``digest`` is the unit's content digest (what the verdict cache keys
    on); ``gap_code`` pins the query label of a ``gap`` unit to one
    concrete, decodable non-member code.
    """

    id: str
    kind: str
    part_key: str
    members: Tuple[str, ...]
    digest: str = ""
    representative: Optional[str] = None
    gap_code: Optional[int] = None

    def describe(self) -> str:
        extent = (
            f"{len(self.members)} member(s)" if len(self.members) != 1
            else self.members[0]
        )
        return f"{self.id} [{self.kind}] -> {self.part_key} ({extent})"


class QueryPlanner:
    """Protocol every query planner implements.

    A planner is stateful: :meth:`plan` computes (and caches) the unit
    list for a zone; :meth:`notify_delta` advances that state when the
    caller applies a :class:`~repro.incremental.delta.ZoneDelta` to the
    last-planned zone; :meth:`affected` reports which unit ids a delta
    invalidates (and advances, so a subsequent :meth:`plan` on the
    post-delta zone is incremental); :meth:`unit_digest` returns the
    content digest the verdict cache keys on.
    """

    #: Canonical planner name (``VerifyOptions.planner`` value).
    name: str = "abstract"

    def plan(self, zone) -> List[PlanUnit]:
        raise NotImplementedError

    def affected(self, delta) -> List[str]:
        raise NotImplementedError

    def unit_digest(self, zone, unit: PlanUnit) -> str:
        raise NotImplementedError

    def notify_delta(self, delta) -> None:
        """Advance internal plan state after the caller applied ``delta``
        to the last-planned zone. Default: stateless planners ignore it."""

    def unit_of_name(self, zone, name) -> Optional[str]:
        """The id of the unit whose query space contains ``name``, or
        None when the planner has no unit covering it (conformance-test
        hook; both implementations are total over concrete names)."""
        raise NotImplementedError


def unit_preconditions(part_key: str, gap_code: Optional[int], encoding):
    """Constraints confining a symbolic query to one plan unit.

    Delegates partition keys (``apex``/``outside``/``miss``/``sub:*``/
    ``full``) to :meth:`Partition.preconditions` — bit-identical to the
    historical restriction — and adds the two planner-level keys:

    - ``gap``: the query's first below-apex label is pinned to
      ``gap_code``, a concrete interner-gap value decoding to a label no
      zone subtree matches (one concrete NXDOMAIN/wildcard-synthesis
      representative instead of an O(tops) exclusion constraint);
    - ``star``: the first below-apex label is pinned to the wildcard
      code, covering queries that name ``*`` literally.
    """
    from repro.dns.interner import WILDCARD_CODE
    from repro.incremental.delta import Partition

    if part_key == "full":
        return []
    if part_key in ("gap", "star"):
        interner = encoding.encoder.interner
        origin = encoding.encoder.zone.origin
        origin_codes = list(interner.encode_name(origin))
        depth = len(origin_codes)
        if encoding.depth <= depth:
            raise ValueError(
                f"encoding depth {encoding.depth} cannot express queries "
                f"below a {depth}-label origin"
            )
        prefix = [eq(encoding.labels[i], origin_codes[i]) for i in range(depth)]
        pinned = WILDCARD_CODE if part_key == "star" else gap_code
        if pinned is None:
            raise ValueError("gap unit requires a gap_code")
        return prefix + [
            ge(encoding.name_len, depth + 1),
            eq(encoding.labels[depth], pinned),
        ]
    return Partition(part_key).preconditions(encoding)


def make_planner(spec: Optional[str]) -> QueryPlanner:
    """A fresh planner from its name (``by-label``, the default for None,
    or ``equivalence-class``)."""
    if spec in (None, BY_LABEL):
        from repro.incremental.planner.by_label import ByLabelPlanner

        return ByLabelPlanner()
    if spec == EQUIVALENCE_CLASS:
        from repro.incremental.planner.ec import ECPlanner

        return ECPlanner()
    raise ValueError(
        f"unknown planner {spec!r}; expected one of {', '.join(PLANNERS)}"
    )
