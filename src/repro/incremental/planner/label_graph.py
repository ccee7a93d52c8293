"""A label graph over one zone: the substrate of equivalence-class planning.

Nodes are the below-apex top labels (the children of the apex, i.e. the
roots of the subtree slices the delta machinery already invalidates at);
edges are the rdata-embedded dependencies between them — CNAME/DNAME/ALIAS
chase targets and NS/MX/SRV additional-section glue, the same rules
the by-label planner's partition closures chase
(:func:`repro.incremental.delta.closure_tops`). The graph keeps,
per top:

- the subtree slice (records) and its content digest;
- the *environment*: the transitively reachable set of other tops whose
  slices the top's resolution can observe (including absent targets, whose
  empty slices pin absence, and the apex wildcard when it would synthesize
  for an absent target);
- a reverse index (``consumed_by``) so a record-level delta dirties exactly
  the tops whose observable environment changed — O(affected), not
  O(records).

Records owned by the apex itself are tracked separately (``apex_records``)
together with the environment reachable from them (``apex_env``), because
every query observes the apex: a change there dirties the whole plan,
exactly as it invalidates every by-label partition today.

The graph is built in one O(records) pass and advanced per delta in
O(dirty region); it never touches the full record list again after
construction, which is what keeps per-delta planning cost flat in zone
size.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.dns.records import ResourceRecord
from repro.dns.rtypes import RRType
from repro.dns.zone import Zone
from repro.incremental.digest import records_digest

#: Pseudo-node key for the apex wildcard subtree.
WILDCARD_TOP = "*"


def _top_of(origin, name) -> Optional[str]:
    """First below-apex label of ``name``, or None for the apex/outside."""
    if not name.is_proper_subdomain_of(origin):
        return None
    return name.relativize(origin)[-1]


class LabelGraph:
    """Per-top slices, chase edges and dirty tracking for one zone."""

    def __init__(self, origin) -> None:
        self.origin = origin
        self.apex_records: List[ResourceRecord] = []
        #: top label -> records of its subtree slice (unsorted multiset).
        self.slices: Dict[str, List[ResourceRecord]] = {}
        #: top label -> digest of its slice (lazily maintained).
        self._slice_digests: Dict[str, str] = {}
        #: top label -> the environment tops its slice transitively chases
        #: (None means empty — the overwhelmingly common, self-contained
        #: case; kept as None to stay lean at million-top scale).
        self._env: Dict[str, Optional[FrozenSet[str]]] = {}
        #: reverse index: top -> set of tops whose env consumes it.
        self._consumed_by: Dict[str, Set[str]] = {}
        #: environment reachable from the apex records themselves.
        self.apex_env: FrozenSet[str] = frozenset()
        self._apex_digest: Optional[str] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, zone: Zone) -> "LabelGraph":
        graph = cls(zone.origin)
        for rec in zone.records:
            graph._place(rec)
        graph._recompute_apex_env()
        for top in graph.slices:
            graph._recompute_env(top)
        return graph

    def _place(self, rec: ResourceRecord) -> None:
        top = _top_of(self.origin, rec.rname)
        if top is None:
            self.apex_records.append(rec)
        else:
            self.slices.setdefault(top, []).append(rec)

    # -- views -------------------------------------------------------------

    @property
    def tops(self) -> List[str]:
        """Sorted existing top labels (including ``*`` when present)."""
        return sorted(self.slices)

    def has_wildcard(self) -> bool:
        return WILDCARD_TOP in self.slices

    def slice_of(self, top: str) -> List[ResourceRecord]:
        return self.slices.get(top, [])

    def slice_digest(self, top: str) -> str:
        digest = self._slice_digests.get(top)
        if digest is None:
            digest = records_digest(self.slices.get(top, []))
            self._slice_digests[top] = digest
        return digest

    def apex_digest(self) -> str:
        if self._apex_digest is None:
            self._apex_digest = records_digest(self.apex_records)
        return self._apex_digest

    def env_of(self, top: str) -> FrozenSet[str]:
        env = self._env.get(top)
        return env if env is not None else frozenset()

    def total_records(self) -> int:
        return len(self.apex_records) + sum(len(s) for s in self.slices.values())

    def environment_records(self, top: Optional[str]) -> List[ResourceRecord]:
        """The closure slice for one top (or the apex when ``top`` is
        None): apex records, the apex environment, the apex wildcard (when
        present), the top's own slice and its chased environment.

        The wildcard slice rides along in *every* closure, not just the
        miss unit's: correct resolution never consults it for queries
        under an existing top, but a buggy engine may (v3.0 synthesizes
        the apex wildcard at empty non-terminals), and the projection must
        preserve buggy behaviour too — the whole point of verifying
        against it."""
        seen: Set[str] = set()
        records = list(self.apex_records)
        for t in self.apex_env:
            if t not in seen:
                seen.add(t)
                records += self.slices.get(t, [])
        if WILDCARD_TOP in self.slices and WILDCARD_TOP not in seen:
            seen.add(WILDCARD_TOP)
            records += self.slices[WILDCARD_TOP]
            for t in self.env_of(WILDCARD_TOP):
                if t not in seen:
                    seen.add(t)
                    records += self.slices.get(t, [])
        if top is not None and top not in seen:
            seen.add(top)
            records += self.slices.get(top, [])
        if top is not None:
            for t in self.env_of(top):
                if t not in seen:
                    seen.add(t)
                    records += self.slices.get(t, [])
        return records

    # -- chase edges -------------------------------------------------------

    def _chase_tops(self, records: List[ResourceRecord],
                    exclude: Optional[str]) -> Set[str]:
        """Direct chase-target tops of ``records`` (rdata-embedded in-zone
        names, SOA exempt), excluding ``exclude`` (the owner top itself)
        and the apex. Absent targets under a present apex wildcard also
        contribute the wildcard node, which would synthesize for them."""
        targets: Set[str] = set()
        wildcard = WILDCARD_TOP in self.slices
        for rec in records:
            if rec.rtype is RRType.SOA:
                continue
            for name in rec.rdata.names():
                top = _top_of(self.origin, name)
                if top is None or top == exclude:
                    continue
                targets.add(top)
                if top not in self.slices and wildcard:
                    targets.add(WILDCARD_TOP)
        return targets

    def _reachable(self, seed_records: List[ResourceRecord],
                   exclude: Optional[str]) -> FrozenSet[str]:
        """Transitive chase closure: every top whose slice the seed can
        observe (absent tops included — their empty slices pin absence)."""
        reached: Set[str] = set()
        frontier = self._chase_tops(seed_records, exclude)
        while frontier:
            top = frontier.pop()
            if top in reached:
                continue
            reached.add(top)
            slice_records = self.slices.get(top)
            if slice_records:
                for nxt in self._chase_tops(slice_records, exclude):
                    if nxt not in reached:
                        frontier.add(nxt)
        return frozenset(reached)

    # -- environment maintenance -------------------------------------------

    def _recompute_apex_env(self) -> None:
        self.apex_env = self._reachable(self.apex_records, exclude=None)

    def _recompute_env(self, top: str) -> None:
        old = self._env.get(top) or frozenset()
        slice_records = self.slices.get(top)
        new = (
            self._reachable(slice_records, exclude=top)
            if slice_records else frozenset()
        )
        for gone in old - new:
            consumers = self._consumed_by.get(gone)
            if consumers:
                consumers.discard(top)
                if not consumers:
                    del self._consumed_by[gone]
        for added in new - old:
            self._consumed_by.setdefault(added, set()).add(top)
        if new:
            self._env[top] = new
        else:
            self._env.pop(top, None)

    # -- delta advance -----------------------------------------------------

    def advance(self, delta) -> Tuple[Set[str], bool]:
        """Apply a record-level delta to the graph.

        Returns ``(dirty_tops, apex_changed)``: the set of existing or
        newly-created tops whose observable content changed (their own
        slice, or a slice in their environment), and whether the apex
        records — which every unit observes — changed. Environments of
        dirty tops are recomputed here; signatures are the planner's job.
        """
        touched: Set[str] = set()
        apex_changed = False
        for change in delta.changes:
            top = _top_of(self.origin, change.record.rname)
            if top is not None:
                touched.add(top)
        # Environments are *structural* (which tops a slice can reach), so
        # a consumer's env only changes when a touched slice's direct chase
        # edges changed — payload-only churn (the dominant delta) leaves
        # them intact. Snapshot edges before mutating to tell the two apart.
        pre_edges = {
            top: self._chase_tops(self.slices.get(top, []), exclude=top)
            for top in touched
        }
        for change in delta.changes:
            rec = change.record
            top = _top_of(self.origin, rec.rname)
            if top is None:
                apex_changed = True
                if change.op == "add":
                    self.apex_records.append(rec)
                else:
                    self.apex_records.remove(rec)
                continue
            if change.op == "add":
                self.slices.setdefault(top, []).append(rec)
            else:
                slice_records = self.slices.get(top, [])
                slice_records.remove(rec)
                if not slice_records:
                    self.slices.pop(top, None)
            self._slice_digests.pop(top, None)
        # A changed slice dirties every top that consumes it (including
        # consumers that chased it while absent), plus itself.
        dirty: Set[str] = set()
        for top in touched:
            dirty.add(top)
            dirty.update(self._consumed_by.get(top, ()))
        if WILDCARD_TOP in touched:
            # Wildcard churn can flip synthesis for *absent* chase targets,
            # which rewires environments of tops that never consumed "*"
            # before. Any such top has a non-empty env (the absent target
            # is in it), so dirtying every env-bearing top is exact enough
            # and small: envs are sparse even at TLD scale.
            dirty.update(self._env.keys())
        if apex_changed:
            self._apex_digest = None
        if apex_changed or WILDCARD_TOP in touched:
            self._recompute_apex_env()
        recompute = set(touched)
        for top in touched:
            post = self._chase_tops(self.slices.get(top, []), exclude=top)
            if post != pre_edges[top]:
                # Rewired edges ripple through every transitive consumer
                # (the reverse index is already transitive).
                recompute.update(self._consumed_by.get(top, ()))
        if WILDCARD_TOP in touched:
            recompute.update(self._env.keys())
        for top in sorted(recompute):
            # Recompute (or, for deleted tops, clear) the env + reverse
            # index entries.
            self._recompute_env(top)
        return dirty, apex_changed
