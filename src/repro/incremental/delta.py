"""Zone deltas and their verification-level impact.

A :class:`ZoneDelta` is a record-level edit script between two zone
snapshots. The incremental engine turns a delta into the set of
*verification partitions* it invalidates; everything else replays from the
verdict cache.

Partitioning the query space
----------------------------

The symbolic query space of one verification run is split by how the
engine's tree walk leaves the apex — the first branching decision every
resolution path makes:

- ``apex``            — the query names the apex itself;
- ``sub:<label>``     — the query descends into the apex child ``<label>``
  (a non-wildcard first-below-apex label that exists in the zone);
- ``miss``            — the query is below the apex but its first label
  matches no apex child (NXDOMAIN space, apex-wildcard synthesis);
- ``outside``         — the query is not a subdomain of the origin at all.

Every engine path lies entirely within one partition, because the path
condition pins the walk's first branch; partitioned verification therefore
finds exactly the bugs a monolithic run finds, partition by partition.

Invalidation rules (the dependency closure)
-------------------------------------------

A partition's verdict may be reused iff nothing its queries can observe
changed. The observable set ("closure") of a partition is:

- the apex RRsets, always (AA flag, SOA authority, apex NS);
- for ``sub:<label>``: the whole subtree slice under that label — a delete
  *anywhere* under the label invalidates it, which is what makes deletes
  under wildcards and delegations safe (the wildcard node, the delegation
  NS set and its glue all live in the slice);
- for ``miss``: the set of existing top labels (they define the partition's
  own boundary) plus the apex-wildcard subtree ``*`` (it synthesizes
  answers for missing children);
- for ``outside``: only the origin and apex (the walk never reaches zone
  data);
- transitively, for every chased rdata target (CNAME/DNAME/ALIAS chase,
  NS/MX/SRV additional-section glue) under the origin: the subtree slice of
  the target's own top label — *including when that subtree is empty*, so
  that later adding the target invalidates its dependents — and, when the
  target's top label is absent, the apex-wildcard subtree that would
  synthesize for it. SOA mname/rname are exempt (never chased or glued).

The closure is digested as the engine sees it (:func:`_encoded_records`):
each closure record, in :class:`~repro.engine.encoding.ZoneEncoder`
order, is its owner, rtype, payload token and embedded name. The engine
sees rdata only as an opaque ``rdata_id`` it copies, so the token keeps
just the equality pattern among the closure's ids; TTLs are not encoded
at all. Address rewrites, SOA serial bumps and TTL edits thus leave every
closure unchanged, while any change of the record text that the engine
can observe changes it (the key is a coarsening of the text closure).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.dns.name import DnsName
from repro.dns.records import ResourceRecord
from repro.dns.rtypes import RRType
from repro.dns.zone import Zone, ZoneValidationError
from repro.incremental.digest import (
    apex_records,
    digest_json,
    subtree_records,
    top_label_of,
    top_labels,
)
from repro.solver import eq, ge, ne
from repro.solver.terms import BoolExpr, lt, or_

#: Partition key constants.
APEX = "apex"
MISS = "miss"
OUTSIDE = "outside"
SUB_PREFIX = "sub:"

#: Resolution layers a delta can invalidate (interface-config names).
TREE_SEARCH = "TreeSearch"
FIND = "Find"


# ---------------------------------------------------------------------------
# Record-level deltas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecordChange:
    """One record-level edit: ``op`` is ``"add"`` or ``"delete"``."""

    op: str
    record: ResourceRecord

    def __post_init__(self) -> None:
        if self.op not in ("add", "delete"):
            raise ValueError(f"unknown delta op {self.op!r}")

    def describe(self) -> str:
        sign = "+" if self.op == "add" else "-"
        return f"{sign} {self.record.to_text()}"


@dataclass(frozen=True)
class ZoneDelta:
    """An edit script between two snapshots of one zone.

    An update is represented as a delete plus an add of the same owner
    name. ``apply`` validates that deletes name existing records and adds
    do not duplicate, then revalidates the resulting zone structurally.
    """

    origin: DnsName
    changes: Tuple[RecordChange, ...]

    def __len__(self) -> int:
        return len(self.changes)

    def __iter__(self):
        return iter(self.changes)

    @property
    def is_empty(self) -> bool:
        return not self.changes

    def apply(self, zone: Zone) -> Zone:
        if zone.origin != self.origin:
            raise ZoneValidationError(
                f"delta for {self.origin.to_text()} applied to "
                f"{zone.origin.to_text()}"
            )
        pool = Counter(zone.records)
        for change in self.changes:
            if change.op == "delete":
                if pool[change.record] <= 0:
                    raise ZoneValidationError(
                        f"delta deletes a record the zone does not hold: "
                        f"{change.record.to_text()}"
                    )
                pool[change.record] -= 1
            else:
                if pool[change.record] > 0:
                    raise ZoneValidationError(
                        f"delta adds a duplicate record: {change.record.to_text()}"
                    )
                pool[change.record] += 1
        records = tuple(
            rec for rec, count in pool.items() for _ in range(count)
        )
        return Zone(self.origin, records)

    def touched_names(self) -> List[DnsName]:
        return sorted({change.record.rname for change in self.changes})

    def describe(self) -> str:
        header = f"delta on {self.origin.to_text()}: {len(self.changes)} change(s)"
        return "\n".join([header] + ["  " + c.describe() for c in self.changes])


def diff_zones(old: Zone, new: Zone) -> ZoneDelta:
    """Record-multiset diff: the delta whose ``apply(old)`` equals ``new``."""
    if old.origin != new.origin:
        raise ZoneValidationError(
            f"cannot diff zones with different origins "
            f"({old.origin.to_text()} vs {new.origin.to_text()})"
        )
    old_pool = Counter(old.records)
    new_pool = Counter(new.records)
    changes: List[RecordChange] = []
    for rec in sorted((old_pool - new_pool).elements(), key=ResourceRecord.sort_key):
        changes.append(RecordChange("delete", rec))
    for rec in sorted((new_pool - old_pool).elements(), key=ResourceRecord.sort_key):
        changes.append(RecordChange("add", rec))
    return ZoneDelta(old.origin, tuple(changes))


# ---------------------------------------------------------------------------
# Partitions of the symbolic query space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """One slice of the query space (see module docstring)."""

    key: str

    @property
    def label(self) -> Optional[str]:
        """The apex-child label for ``sub:`` partitions, else None."""
        if self.key.startswith(SUB_PREFIX):
            return self.key[len(SUB_PREFIX):]
        return None

    def preconditions(self, encoding) -> List[BoolExpr]:
        """Constraints confining the symbolic query to this partition.

        ``encoding`` is the session's
        :class:`~repro.core.encoding.QueryEncoding`; the returned formulas
        are conjoined with the global preconditions.
        """
        interner = encoding.encoder.interner
        origin = encoding.encoder.zone.origin
        origin_codes = list(interner.encode_name(origin))
        depth = len(origin_codes)
        if encoding.depth <= depth and self.key != APEX:
            raise ValueError(
                f"encoding depth {encoding.depth} cannot express queries "
                f"below a {depth}-label origin"
            )
        prefix = [eq(encoding.labels[i], origin_codes[i]) for i in range(depth)]
        if self.key == APEX:
            return prefix + [eq(encoding.name_len, depth)]
        if self.key == OUTSIDE:
            mismatches = [ne(encoding.labels[i], origin_codes[i]) for i in range(depth)]
            return [or_(lt(encoding.name_len, depth), *mismatches)]
        if self.key == MISS:
            zone = encoding.encoder.zone
            excluded = [
                ne(encoding.labels[depth], interner.code(top))
                for top in top_labels(zone)
                if top != "*"
            ]
            return prefix + [ge(encoding.name_len, depth + 1)] + excluded
        return prefix + [
            ge(encoding.name_len, depth + 1),
            eq(encoding.labels[depth], interner.code(self.label)),
        ]


def _zone_partitions(zone: Zone) -> List[Partition]:
    """Every partition of ``zone``'s query space, in deterministic order.

    The apex-wildcard label ``*`` does not get its own ``sub:`` partition:
    queries cannot match it as an ordinary child (its code is reachable
    only by naming ``*`` literally, which the ``miss`` partition covers,
    and whose closure includes the ``*`` subtree).
    """
    parts = [Partition(APEX), Partition(OUTSIDE), Partition(MISS)]
    for top in top_labels(zone):
        if top != "*":
            parts.append(Partition(SUB_PREFIX + top))
    return parts


def _partition_of_name(zone: Zone, name: DnsName) -> str:
    """The key of the partition a concrete query name falls into."""
    if name == zone.origin:
        return APEX
    if not name.is_subdomain_of(zone.origin):
        return OUTSIDE
    top = name.relativize(zone.origin)[-1]
    if top != "*" and top in top_labels(zone):
        return SUB_PREFIX + top
    return MISS


# ---------------------------------------------------------------------------
# Dependency closures and invalidation
# ---------------------------------------------------------------------------


def _chase_targets(records: Sequence[ResourceRecord], origin: DnsName) -> Set[DnsName]:
    """In-zone rdata-embedded names reachable from ``records`` (CNAME/
    DNAME/ALIAS chase and NS/MX/SRV glue); SOA is exempt."""
    targets: Set[DnsName] = set()
    for rec in records:
        if rec.rtype is RRType.SOA:
            continue
        for name in rec.rdata.names():
            if name.is_subdomain_of(origin):
                targets.add(name)
    return targets


def _labels(interner, codes) -> List[str]:
    """An encoded name as its labels, most significant first."""
    return [interner.interned_label(code) for code in codes]


def _encoded_records(encoder, keep: Callable[[ResourceRecord], bool]) -> List[list]:
    """The records ``keep`` selects, each as the engine sees it, in
    :attr:`ZoneEncoder.records <repro.engine.encoding.ZoneEncoder.records>`
    order: ``[owner, rtype, payload token, embedded name]``.

    The payload token is the record's ``rdata_id`` renumbered by first
    appearance among the selected records, so only the equality pattern of
    the ids survives. Names are the encoded label codes mapped back to
    their labels: under the label universe a verdict key pins, that is the
    same key as the codes, and it stays independent of labels elsewhere in
    the zone (an added label shifts the code of every label ranked after
    it)."""
    interner = encoder.interner
    tokens: Dict[int, int] = {}
    material: List[list] = []
    for record, rr in encoder.records:
        if keep(record):
            token = tokens.setdefault(rr.rdata_id, len(tokens) + 1)
            material.append([
                _labels(interner, rr.rname), rr.rtype, token,
                _labels(interner, rr.rdata_name),
            ])
    return material


def closure_tops(zone: Zone, key: str) -> List[str]:
    """The sorted apex-child labels whose subtree slices the queries of
    partition ``key`` can observe, besides the apex itself (see the module
    docstring). A label whose slice is empty still counts: it pins the
    absence of the chased target."""
    origin = zone.origin
    present = set(top_labels(zone))
    seed: List[ResourceRecord] = apex_records(zone)
    included: Set[str] = set()

    def include_subtree(top: str) -> List[ResourceRecord]:
        if top in included:
            return []
        included.add(top)
        return subtree_records(zone, top)

    if key == MISS:
        if "*" in present:
            seed += include_subtree("*")
    elif key.startswith(SUB_PREFIX):
        seed += include_subtree(key[len(SUB_PREFIX):])

    # Transitive chase: a target's resolution depends on its own subtree
    # slice (empty slices still pin absence) and, when its top label is
    # absent, on the apex wildcard that would synthesize for it. The walk
    # of an ``outside`` query never reaches below the apex.
    frontier = seed if key != OUTSIDE else []
    seen_targets: Set[DnsName] = set()
    while frontier:
        new_records: List[ResourceRecord] = []
        for target in sorted(_chase_targets(frontier, origin)):
            if target in seen_targets:
                continue
            seen_targets.add(target)
            if target == origin:
                continue  # apex is always in the closure
            top = top_label_of(zone, target)
            assert top is not None
            new_records += include_subtree(top)
            if top not in present and "*" in present:
                new_records += include_subtree("*")
        frontier = new_records
    return sorted(included)


def _partition_closure(encoder, key: str) -> Dict[str, object]:
    """Digest material for one partition: everything its queries observe.

    ``encoder`` is the :class:`~repro.engine.encoding.ZoneEncoder` of the
    zone. The returned dict is canonical-JSON digestable; two zones with
    the same label universe give the same closure for a partition iff the
    partition's verdict is reusable across them. ``key="full"`` is the
    whole zone (the unsplit query space).
    """
    zone = encoder.zone
    origin = zone.origin
    material: Dict[str, object] = {"partition": key, "origin": origin.to_text()}
    if key == "full":
        material["records"] = _encoded_records(encoder, lambda rec: True)
        return material
    if key == MISS:
        material["tops"] = [t for t in top_labels(zone) if t != "*"]
    tops = closure_tops(zone, key)
    observed = set(tops)
    material["subtrees"] = tops
    material["records"] = _encoded_records(
        encoder,
        lambda rec: rec.rname == origin or top_label_of(zone, rec.rname) in observed,
    )
    return material


def partition_digest(encoder, key: str) -> str:
    """Digest of :func:`_partition_closure` for the zone ``encoder``
    encodes."""
    return digest_json(_partition_closure(encoder, key))


def _affected_partitions(old, new) -> List[str]:
    """Partitions of ``new.zone`` whose closure differs from
    ``old.zone``'s (or which ``old.zone`` did not have); both arguments
    are :class:`~repro.engine.encoding.ZoneEncoder`\\ s. These are the
    partitions a delta from old to new invalidates; all others replay."""
    return [
        part.key for part in _zone_partitions(new.zone)
        if partition_digest(new, part.key) != partition_digest(old, part.key)
    ]


@dataclass(frozen=True)
class DeltaImpact:
    """What one delta invalidates, by the documented dependency rules."""

    affected_partitions: Tuple[str, ...]
    affected_layers: Tuple[str, ...]
    reusable_partitions: Tuple[str, ...]

    def describe(self) -> str:
        return (
            f"invalidates {len(self.affected_partitions)} partition(s) "
            f"[{', '.join(self.affected_partitions) or '-'}], layers "
            f"[{', '.join(self.affected_layers) or '-'}]; "
            f"{len(self.reusable_partitions)} reusable"
        )


def _shape(zone: Zone) -> FrozenSet[DnsName]:
    """The domain-tree shape: every owner name plus its empty non-terminal
    ancestors (what TreeSearch observes)."""
    names: Set[DnsName] = {zone.origin}
    for rec in zone.records:
        name = rec.rname
        while name != zone.origin:
            names.add(name)
            name = name.parent()
    return frozenset(names)


def delta_impact(old: Zone, new: Zone) -> DeltaImpact:
    """Invalidation summary for the ``old -> new`` edit.

    Layer rules: **TreeSearch** only observes the tree shape (owner names
    and empty non-terminals, plus per-node delegation/type structure is
    Find's concern), so it is invalidated only when the shape changes;
    **Find** observes RRsets as the engine sees them and is invalidated by
    any change of the encoded records (an address, TTL or SOA-serial edit
    is not one).
    """
    from repro.engine.encoding import ZoneEncoder

    old_encoder, new_encoder = ZoneEncoder(old), ZoneEncoder(new)
    affected = _affected_partitions(old_encoder, new_encoder)
    layers: List[str] = []
    if _shape(old) != _shape(new):
        layers.append(TREE_SEARCH)
    if partition_digest(old_encoder, "full") != partition_digest(new_encoder, "full"):
        layers.append(FIND)
    reusable = [
        p.key for p in _zone_partitions(new) if p.key not in affected
    ]
    return DeltaImpact(tuple(affected), tuple(layers), tuple(reusable))


# ---------------------------------------------------------------------------
# Random deltas (test corpus / benchmarks)
# ---------------------------------------------------------------------------


def random_delta(zone: Zone, rng, ops: int = 1) -> ZoneDelta:
    """A random, validity-preserving delta of ``ops`` record changes.

    Draws adds, deletes and updates (delete+add at one owner) that keep
    the zone structurally valid; used by the equivalence test corpus and
    the incremental benchmark.
    """
    from repro.dns.rdata import ARdata, TXTRdata

    current = zone
    changes: List[RecordChange] = []
    attempts = 0
    while len(changes) < ops and attempts < 64 * ops:
        attempts += 1
        kind = rng.choice(["add", "delete", "update", "update"])
        candidate: List[RecordChange] = []
        if kind == "delete":
            deletable = [
                rec for rec in current.records if rec.rtype is not RRType.SOA
            ]
            if not deletable:
                continue
            candidate = [RecordChange("delete", rng.choice(deletable))]
        elif kind == "add":
            owner = _random_owner(current, rng)
            if rng.random() < 0.5:
                new = ResourceRecord(
                    owner, RRType.A, ARdata(f"192.0.2.{rng.randint(1, 254)}")
                )
            else:
                new = ResourceRecord(
                    owner, RRType.TXT, TXTRdata(f"delta-{rng.randint(0, 9999)}")
                )
            if new in current.records:
                continue
            candidate = [RecordChange("add", new)]
        else:  # update: rewrite one record's rdata in place
            updatable = [
                rec
                for rec in current.records
                if rec.rtype in (RRType.A, RRType.TXT)
            ]
            if not updatable:
                continue
            rec = rng.choice(updatable)
            if rec.rtype is RRType.A:
                rdata = ARdata(f"192.0.2.{rng.randint(1, 254)}")
            else:
                rdata = TXTRdata(f"delta-{rng.randint(0, 9999)}")
            replacement = ResourceRecord(rec.rname, rec.rtype, rdata, rec.ttl)
            if replacement == rec:
                continue
            candidate = [
                RecordChange("delete", rec),
                RecordChange("add", replacement),
            ]
        try:
            current = ZoneDelta(current.origin, tuple(candidate)).apply(current)
        except (ZoneValidationError, ValueError):
            continue
        changes.extend(candidate)
    return ZoneDelta(zone.origin, tuple(changes))


def _random_owner(zone: Zone, rng) -> DnsName:
    """An owner name for a new record: an existing name, a child of one,
    or a child of the apex with a fresh label."""
    labels = ["alpha", "beta", "gamma", "delta", "extra", "x1", "x2"]
    roll = rng.random()
    names = zone.names()
    if roll < 0.4:
        return rng.choice(names)
    if roll < 0.8:
        return rng.choice(names).prepend(rng.choice(labels))
    return zone.origin.prepend(rng.choice(labels))
