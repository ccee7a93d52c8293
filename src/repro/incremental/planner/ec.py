"""The equivalence-class query planner: O(behaviours) units, not O(records).

The by-label planner emits one verification unit per below-apex subtree,
which is linear in zone size — the open ROADMAP bottleneck for
million-record zones. Groot's observation is that most of those units are
*behaviourally identical*: a TLD-shaped zone has hundreds of thousands of
delegations that differ only in the delegated label and the glue payload,
and the engine resolves all of them with the same code paths. This module
collapses them.

Equivalence is computed per top label as an **α-abstracted signature**:

- every occurrence of the top's own label (in owner names and in
  rdata-embedded names under the origin) is rewritten to the placeholder
  ``@T``, so two delegations ``foo`` and ``bar`` with isomorphic subtrees
  produce identical slice text;
- opaque payloads (A/AAAA/TXT rdata) are rewritten to ``@P<k>`` tokens
  assigned by first appearance, preserving the *equality pattern* but not
  the values — address churn, the dominant real-world delta, keeps the
  signature (and therefore the cached verdict) stable;
- everything the slice can *observe* stays concrete: the digests of the
  apex records, of every chased environment slice, and of the apex's own
  environment. Labels other than the member's own, TTLs and record
  multiplicity also stay concrete.

Tops with equal signatures form one class; the planner emits a single unit
per class, verified on the smallest (canonical) member as representative
against a **projected zone** — the dependency closure of that member, not
the full zone — which is what makes the symbolic run independent of zone
size. Four singleton units cover the rest of the query space:

- ``ec:apex``: queries naming the origin;
- ``ec:outside``: queries out of bailiwick;
- ``ec:miss``: queries whose first below-apex label matches no subtree
  (NXDOMAIN or wildcard synthesis), verified with the query label pinned
  to one concrete interner-gap representative — one concrete BST descent
  instead of the by-label planner's O(tops) exclusion constraint, and,
  crucially, a digest that does **not** mention the set of existing tops,
  so subtree churn never invalidates it;
- ``ec:star``: queries naming the wildcard label literally.

Soundness rests on the hypothesis that the engines distinguish labels only
through ordered BST navigation, never through their concrete values — true
of every seeded defect — and is defended in depth: the randomized
bit-identity suite compares EC verdicts against the by-label oracle, and
the incremental engine re-validates every class verdict natively on each
member (with symbolic fallback on translation failure or divergence).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.dns.interner import LABEL_SPACING, LabelInterner
from repro.dns.name import DnsName
from repro.dns.rtypes import RRType
from repro.dns.zone import Zone
from repro.incremental.digest import digest_json
from repro.incremental.planner.label_graph import (
    WILDCARD_TOP,
    LabelGraph,
    _top_of,
)
from repro.incremental.planner.protocol import (
    EQUIVALENCE_CLASS,
    KIND_APEX,
    KIND_MISS,
    KIND_OUTSIDE,
    KIND_STAR,
    KIND_SUB,
    PlanUnit,
    QueryPlanner,
)

#: RR types whose rdata carries no resolution-relevant structure; their
#: payloads are abstracted to ``@P<k>`` equality tokens in signatures.
PAYLOAD_TYPES = frozenset((RRType.A, RRType.AAAA, RRType.TXT))

#: Placeholder for the member's own top label in abstracted text.
TOP_TOKEN = "@T"

#: Placeholder for the zone origin in abstracted owner/rdata names.
ORIGIN_TOKEN = "@Z"


# ---------------------------------------------------------------------------
# α-abstraction


def _abstract_name(name: DnsName, origin: DnsName, top: str) -> str:
    """Render ``name`` with the member's own label α-abstracted.

    Names under the origin render relatively with every occurrence of
    ``top`` replaced by ``@T`` and the origin by ``@Z`` (so the rendering
    is origin-independent); names out of bailiwick render verbatim — they
    are opaque referral text to the engine.
    """
    if not name.is_subdomain_of(origin):
        return name.to_text()
    rel = name.relativize(origin)
    if not rel:
        return ORIGIN_TOKEN
    labels = [TOP_TOKEN if lab == top else lab for lab in rel]
    return ".".join(labels) + "." + ORIGIN_TOKEN


def _abstract_rdata(rdata, origin: DnsName, top: str) -> str:
    """Rdata text with embedded in-bailiwick names α-abstracted."""
    text = rdata.to_text()
    # Longest-first so a name that is a suffix of another cannot clobber
    # the longer one's occurrence mid-replacement.
    for name in sorted(set(rdata.names()), key=lambda n: -len(n.to_text())):
        abstracted = _abstract_name(name, origin, top)
        concrete = name.to_text()
        if abstracted != concrete:
            text = text.replace(concrete, abstracted)
    return text


def slice_lines(graph: LabelGraph, top: str) -> List[str]:
    """The α-abstracted rendering of one top's slice — the expensive part
    of its signature, depending only on the slice's own records (cacheable
    across env-digest churn)."""
    origin = graph.origin
    keyed = []
    for rec in graph.slice_of(top):
        owner = _abstract_name(rec.rname, origin, top)
        if rec.rtype in PAYLOAD_TYPES:
            keyed.append((owner, int(rec.rtype), rec.rdata.to_text(), True,
                          rec.ttl))
        else:
            keyed.append((owner, int(rec.rtype),
                          _abstract_rdata(rec.rdata, origin, top), False,
                          rec.ttl))
    # Canonical order: abstract owner, type, then concrete payload text as
    # the tie-break. Token numbering follows this order, so isomorphic
    # slices tokenise identically (up to payload-order ties, which only
    # ever split classes — conservative, never unsound).
    keyed.sort()
    tokens: Dict[Tuple[int, str], str] = {}
    lines = []
    for owner, rtype, rdata_text, is_payload, ttl in keyed:
        if is_payload:
            token = tokens.setdefault((rtype, rdata_text),
                                      f"@P{len(tokens)}")
            rdata_text = token
        lines.append(f"{owner} {ttl} {rtype} {rdata_text}")
    return lines


def member_signature(graph: LabelGraph, top: str,
                     lines: Optional[List[str]] = None) -> dict:
    """The behavioural signature of one top label's subtree.

    Two tops with equal signatures resolve identically up to renaming the
    top label and the opaque payloads — the class-collapse criterion.
    """
    return {
        "slice": slice_lines(graph, top) if lines is None else lines,
        "env": sorted((t, graph.slice_digest(t)) for t in graph.env_of(top)),
        "apex": graph.apex_digest(),
        "apexenv": sorted(
            (t, graph.slice_digest(t)) for t in graph.apex_env
        ),
        # The apex wildcard is in every projection (buggy engines consult
        # it where correct semantics would not), so every signature pins it.
        "wild": (
            graph.slice_digest(WILDCARD_TOP) if graph.has_wildcard() else None
        ),
        "wildenv": sorted(
            (t, graph.slice_digest(t)) for t in graph.env_of(WILDCARD_TOP)
        ),
    }


def translate_name(name: DnsName, rep: str, member: str,
                   origin: DnsName) -> DnsName:
    """Rewrite a representative-space name into member space.

    The inverse of the α-abstraction: every below-apex occurrence of the
    representative's label becomes the member's. Out-of-bailiwick names
    pass through untouched.
    """
    if not name.is_subdomain_of(origin):
        return name
    rel = name.relativize(origin)
    if not rel:
        return name
    labels = tuple(member if lab == rep else lab for lab in rel)
    return DnsName(labels + origin.labels)


# ---------------------------------------------------------------------------
# The planner


class ECPlanner(QueryPlanner):
    """One verification unit per equivalence class of query behaviours."""

    name = EQUIVALENCE_CLASS

    def __init__(self) -> None:
        self._zone: Optional[Zone] = None
        self._graph: Optional[LabelGraph] = None
        #: top label -> signature digest.
        self._sigs: Dict[str, str] = {}
        #: signature digest -> member top labels.
        self._class_members: Dict[str, Set[str]] = {}
        #: signature digest -> signature value (for unit digests).
        self._sig_values: Dict[str, dict] = {}
        #: top label -> cached α-abstracted slice rendering, invalidated
        #: only when the top's *own* records change — so re-signing a top
        #: whose environment digests moved costs O(env), not O(slice).
        self._lines: Dict[str, List[str]] = {}
        #: signature digest -> sorted member tuple, invalidated on
        #: membership change — a TLD-sized class holds hundreds of
        #: thousands of members, and re-sorting them per delta would put
        #: an O(members) term back into the flat-cost path.
        self._members_cache: Dict[str, Tuple[str, ...]] = {}
        self._units: Optional[List[PlanUnit]] = None
        self._units_by_id: Dict[str, PlanUnit] = {}
        #: Set after notify_delta: the next plan() call may adopt a zone
        #: object we have not seen, provided it matches the advanced graph.
        self._pending_adoption = False

    # -- protocol ----------------------------------------------------------

    def plan(self, zone: Zone) -> List[PlanUnit]:
        if self._graph is not None and self._matches_state(zone):
            self._zone = zone
            self._pending_adoption = False
            if self._units is None:
                self._refresh_units()
            return list(self._units)
        self._rebuild(zone)
        return list(self._units)

    def affected(self, delta) -> List[str]:
        if self._graph is None or self._zone is None:
            raise ValueError("affected() requires a prior plan() call")
        self._zone = delta.apply(self._zone)
        return self._advance(delta)

    def notify_delta(self, delta) -> None:
        if self._graph is None:
            return
        self._advance(delta)
        # The caller holds the post-delta zone object; accept it at the
        # next plan() call instead of rebuilding the graph from scratch.
        self._zone = None
        self._pending_adoption = True

    def unit_digest(self, zone: Zone, unit: PlanUnit) -> str:
        self.plan(zone)
        current = self._units_by_id.get(unit.id)
        return current.digest if current is not None else unit.digest

    def unit_of_name(self, zone: Zone, name: DnsName) -> Optional[str]:
        self.plan(zone)
        origin = self._graph.origin
        if not name.is_subdomain_of(origin):
            return "ec:outside"
        if name == origin:
            return "ec:apex"
        top = name.relativize(origin)[-1]
        if top == WILDCARD_TOP:
            return "ec:star"
        digest = self._sigs.get(top)
        if digest is None:
            return "ec:miss"
        return f"ec:sub:{digest[:12]}"

    # -- projection (engine-facing) ----------------------------------------

    def projected_zone(self, unit: PlanUnit) -> Zone:
        """The smallest zone that reproduces the unit's behaviour: the
        dependency closure of its representative. Verifying against it
        instead of the full zone is what decouples per-unit symbolic cost
        from zone size."""
        self._require_plan()
        graph = self._graph
        if unit.kind in (KIND_APEX, KIND_OUTSIDE):
            records = graph.environment_records(None)
        elif unit.kind in (KIND_MISS, KIND_STAR):
            wild = WILDCARD_TOP if graph.has_wildcard() else None
            records = graph.environment_records(wild)
        elif unit.kind == KIND_SUB:
            records = graph.environment_records(unit.representative)
        else:
            raise ValueError(f"cannot project unit kind {unit.kind!r}")
        return self._as_zone(records)

    def member_zone(self, member: str) -> Zone:
        """The dependency closure of one class member (for native
        re-validation of translated counterexamples)."""
        self._require_plan()
        return self._as_zone(self._graph.environment_records(member))

    def members_of(self, unit: PlanUnit) -> Tuple[str, ...]:
        return unit.members

    def _as_zone(self, records) -> Zone:
        return Zone(
            self._graph.origin,
            tuple(sorted(records, key=lambda r: r.sort_key())),
        )

    # -- state maintenance -------------------------------------------------

    def _require_plan(self) -> None:
        if self._graph is None:
            raise ValueError("planner has no plan; call plan(zone) first")

    def _matches_state(self, zone: Zone) -> bool:
        if zone is self._zone:
            return True
        # After notify_delta we only know the delta, not the caller's new
        # zone object; adopt it when it is plausibly the advanced zone.
        return (
            self._pending_adoption
            and zone.origin == self._graph.origin
            and len(zone.records) == self._graph.total_records()
        )

    def _rebuild(self, zone: Zone) -> None:
        self._graph = LabelGraph.build(zone)
        self._zone = zone
        self._pending_adoption = False
        self._sigs = {}
        self._class_members = {}
        self._sig_values = {}
        self._lines = {}
        self._members_cache = {}
        for top in self._graph.slices:
            if top != WILDCARD_TOP:
                self._assign_sig(top)
        self._refresh_units()

    def _advance(self, delta) -> List[str]:
        if self._units is None:
            self._refresh_units()
        before = {u.id: u.digest for u in self._units}
        origin = self._graph.origin
        touched = {
            top for change in delta.changes
            if (top := _top_of(origin, change.record.rname)) is not None
        }
        dirty, apex_changed = self._graph.advance(delta)
        # A touched slice's cached abstraction is stale; a merely-dirty
        # consumer's is not (only its observable env digests moved).
        for top in touched:
            self._lines.pop(top, None)
        if apex_changed or WILDCARD_TOP in dirty:
            # Every signature embeds the apex digest and the wildcard
            # slice/env digests; re-sign everything. Rare (apex or
            # wildcard edits), and exactly mirrors the by-label planner,
            # where an apex change invalidates every partition closure.
            resign = set(self._graph.slices)
        else:
            resign = {t for t in dirty if t in self._graph.slices}
        for top in resign:
            if top != WILDCARD_TOP:
                self._assign_sig(top)
        # Tops only vanish when touched — no O(tops) sweep needed.
        for gone in touched:
            if gone not in self._graph.slices:
                self._remove_sig(gone)
                self._lines.pop(gone, None)
        self._refresh_units()
        affected = [
            u.id for u in self._units if before.get(u.id) != u.digest
        ]
        current = self._units_by_id
        # A re-signed class reappears under a new id (ids embed the class
        # digest); report the vanished ids too so callers see the full
        # invalidation set.
        affected.extend(sorted(uid for uid in before if uid not in current))
        return affected

    def _assign_sig(self, top: str) -> None:
        lines = self._lines.get(top)
        if lines is None:
            lines = slice_lines(self._graph, top)
            self._lines[top] = lines
        sig = member_signature(self._graph, top, lines=lines)
        digest = digest_json(sig)
        old = self._sigs.get(top)
        if old == digest:
            return
        if old is not None:
            self._remove_sig(top)
        self._sigs[top] = digest
        self._class_members.setdefault(digest, set()).add(top)
        self._sig_values.setdefault(digest, sig)
        self._members_cache.pop(digest, None)

    def _remove_sig(self, top: str) -> None:
        digest = self._sigs.pop(top, None)
        if digest is None:
            return
        members = self._class_members.get(digest)
        if members is not None:
            members.discard(top)
            if not members:
                del self._class_members[digest]
                self._sig_values.pop(digest, None)
        self._members_cache.pop(digest, None)

    def _refresh_units(self) -> None:
        graph = self._graph
        apex_digest = graph.apex_digest()
        apexenv = sorted(
            (t, graph.slice_digest(t)) for t in graph.apex_env
        )
        wild_digest = (
            graph.slice_digest(WILDCARD_TOP) if graph.has_wildcard() else None
        )
        wildenv = sorted(
            (t, graph.slice_digest(t)) for t in graph.env_of(WILDCARD_TOP)
        )
        units = [
            PlanUnit(
                id="ec:apex",
                kind=KIND_APEX,
                part_key="apex",
                members=("@",),
                digest=digest_json(
                    {
                        "kind": "apex",
                        "apex": apex_digest,
                        "apexenv": apexenv,
                        "wild": wild_digest,
                        "wildenv": wildenv,
                    }
                ),
            ),
            PlanUnit(
                id="ec:outside",
                kind=KIND_OUTSIDE,
                part_key="outside",
                members=("@outside",),
                digest=digest_json(
                    {
                        "kind": "outside",
                        "apex": apex_digest,
                        "wild": wild_digest,
                    }
                ),
            ),
            # The miss digest deliberately omits the set of existing tops:
            # adding or removing an unrelated subtree must NOT invalidate
            # the NXDOMAIN/wildcard-synthesis verdict. That omission is the
            # planner's biggest single win over the by-label partition
            # closure, whose miss closure enumerates every top label.
            PlanUnit(
                id="ec:miss",
                kind=KIND_MISS,
                part_key="gap",
                members=("@gap",),
                digest=digest_json(
                    {
                        "kind": "miss",
                        "apex": apex_digest,
                        "apexenv": apexenv,
                        "wild": wild_digest,
                        "wildenv": wildenv,
                    }
                ),
                gap_code=self._choose_gap_code(),
            ),
            PlanUnit(
                id="ec:star",
                kind=KIND_STAR,
                part_key="star",
                members=(WILDCARD_TOP,),
                digest=digest_json(
                    {
                        "kind": "star",
                        "apex": apex_digest,
                        "apexenv": apexenv,
                        "wild": wild_digest,
                        "wildenv": wildenv,
                    }
                ),
            ),
        ]
        for digest in sorted(self._class_members):
            members = self._members_cache.get(digest)
            if members is None:
                members = tuple(sorted(self._class_members[digest]))
                self._members_cache[digest] = members
            units.append(
                PlanUnit(
                    id=f"ec:sub:{digest[:12]}",
                    kind=KIND_SUB,
                    part_key=f"sub:{members[0]}",
                    members=members,
                    digest=digest,
                    representative=members[0],
                )
            )
        self._units = units
        self._units_by_id = {u.id: u for u in units}

    def _choose_gap_code(self) -> int:
        """A concrete query-label code for the miss unit.

        Chosen in the *projected* miss zone's interner space — identical to
        the interner the verification session will build over that zone —
        and constrained to decode to a label that exists nowhere among the
        full zone's tops, so the representative query is a genuine miss in
        both the projected and the full zone. Gap decoding depends only on
        the inter-label rank, so the mid-gap code is canonical.
        """
        graph = self._graph
        wild = WILDCARD_TOP if graph.has_wildcard() else None
        miss_zone = self._as_zone(graph.environment_records(wild))
        interner = LabelInterner.for_zone(miss_zone)
        for rank in range(len(interner) + 1):
            code = rank * LABEL_SPACING + LABEL_SPACING // 2
            label = interner.decode(code)
            if label is None or label in graph.slices:
                continue
            return code
        raise ValueError(
            "no interner gap decodes to a label absent from the zone; "
            "cannot pin a miss representative"
        )
