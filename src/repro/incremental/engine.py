"""Delta-driven verification: re-verify only what a zone change invalidates.

:class:`IncrementalVerifier` holds the current zone snapshot and a
content-addressed cache of *partition verdicts*. A verification run splits
the symbolic query space into the units of its query planner (by default
:meth:`ByLabelPlanner.plan <repro.incremental.planner.by_label.ByLabelPlanner.plan>`,
one partition per apex child), verifies each in a
restricted session (the partition's constraints are conjoined onto the
global preconditions), and merges per-partition verdicts into one ordinary
:class:`~repro.core.pipeline.VerificationResult`. Verdicts are cached; a
subsequent run — typically after :meth:`IncrementalVerifier.apply` applied
a :class:`~repro.incremental.delta.ZoneDelta` — replays every partition
whose dependency closure is unchanged and re-runs only the rest. A cached
monolithic verify (:func:`verify_cached`) stores and replays the same
record, under the key of the unsplit ``full`` unit.

Witness stability (why replayed results are bit-identical)
----------------------------------------------------------

A cached verdict stores the *decoded* bug reports of its original run.
Replaying them must reproduce exactly what a fresh run would report, so the
cache key pins everything the restricted run can observe: the engine and
layer-config digests, the partition's dependency closure, the encoding
depth, **and the zone's full label universe plus top-label set**. The last
two look redundant but are not: interner codes are assigned by global label
rank, and the walk's first branch compares against every apex child, so
path conditions (and hence the solver's witness models) depend on them.
With all of it pinned, the restricted session's constraint set is
reproduced exactly and the deterministic solver returns the same models.
The closure is digested as the engine sees it (see
:mod:`repro.incremental.delta`), from one
:class:`~repro.engine.encoding.ZoneEncoder` per zone and run, so an
address rewrite, a SOA serial bump or a TTL edit replays every unit.
That covers BUG verdicts too (UNKNOWN ones are never stored): a bug is
re-executed natively on trees built from the encoder, described by
record counts and decoded through the pinned universe, so no zone text
enters it. The cost is honest: a delta that adds or removes a *label*
invalidates all partitions, while address, serial and TTL churn — the
dominant production update — replays everything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.encoding import encoding_depth
from repro.core.options import VerifyOptions
from repro.core.pipeline import (
    BugReport,
    LayerResult,
    VerificationResult,
    VerificationSession,
)
from repro.dns.zone import Zone
from repro.engine.encoding import ZoneEncoder
from repro.incremental.cache import SummaryCache
from repro.incremental.delta import ZoneDelta, partition_digest
from repro.incremental.planner.protocol import (
    KIND_PARTITION,
    KIND_SUB,
    PlanUnit,
    make_planner,
    unit_preconditions,
)
from repro.incremental.digest import (
    engine_digest,
    layers_digest,
    top_labels,
)
from repro.incremental.serialize import bug_from_json, bug_to_json
from repro.resilience import verdicts as verdicts_mod
from repro.incremental import delta as delta_mod


def bug_sort_key(bug: BugReport) -> Tuple:
    """Canonical order for merged bug lists (partition merge order is not
    the monolithic session's discovery order)."""
    return (
        bug.version,
        bug.categories,
        bug.qname_codes,
        bug.qtype_code,
        bug.description,
    )


# ---------------------------------------------------------------------------
# Partition verdicts: the serializable unit the cache stores and the
# parallel workers ship. Module-level so pool workers can build and the
# parent can merge them without instantiating a verifier.
# ---------------------------------------------------------------------------


def verdict_of(result: VerificationResult) -> Dict:
    """The JSON-safe cacheable form of a partition result."""
    return {
        "verified": result.verified,
        "verdict": result.verdict,
        "unknown_reason": result.unknown_reason,
        "solver_checks": result.solver_checks,
        "spurious_mismatches": result.spurious_mismatches,
        "elapsed_seconds": result.elapsed_seconds,
        "analysis": result.analysis,
        "layers": [
            {
                "name": layer.name,
                "route": layer.route,
                "elapsed_seconds": layer.elapsed_seconds,
                "paths": layer.paths,
                "cases": layer.cases,
                "verified": layer.verified,
            }
            for layer in result.layers
        ],
        "bugs": [bug_to_json(b) for b in result.bugs],
    }


def verify_unit(zone: Zone, version: str, options: VerifyOptions,
                part_key: str = "full", gap_code: Optional[int] = None, *,
                budget=None, solver=None) -> VerificationResult:
    """Verify one query-plan unit: the one place a
    :class:`VerificationSession` is built from a :class:`VerifyOptions`.

    ``part_key="full"`` is the unsplit query space (a monolithic verify);
    any other key confines the symbolic query with
    :func:`~repro.incremental.planner.protocol.unit_preconditions`.
    ``budget`` defaults to a fresh ``options.make_budget()``, so a bound
    is per unit."""
    session = VerificationSession(
        zone,
        version,
        depth=options.depth,
        solver=solver,
        max_paths=options.max_paths,
        max_steps=options.max_steps,
        budget=budget if budget is not None else options.make_budget(),
        analysis=options.analysis,
        analysis_check=options.analysis_check,
    )
    pre = unit_preconditions(part_key, gap_code, session.query_encoding)
    if pre:
        session.restrict(pre)
    return session.verify(use_summaries=options.use_summaries)


def store_verdict(cache: SummaryCache, key: Dict, verdict: Dict) -> None:
    """Cache a freshly computed verdict. UNKNOWN/ERROR verdicts reflect a
    budget or environment, not zone content — they are never stored."""
    if verdict["verdict"] in (verdicts_mod.VERIFIED, verdicts_mod.BUG):
        cache.put("partition", key, verdict)


def replay_bugs(verdict: Dict) -> Optional[List[BugReport]]:
    """The bugs of a cached verdict, or None when the record is malformed
    (a cache file is outside input; a bad one is a miss)."""
    try:
        return [bug_from_json(b) for b in verdict["bugs"]]
    except (KeyError, TypeError, ValueError):
        return None


def merge_partition(merged: VerificationResult, part_key: str, verdict: Dict,
                    bugs: List[BugReport], cached: bool) -> None:
    """Fold one partition verdict into the merged result. Called in the
    stable :meth:`IncrementalVerifier._plan_units` order regardless of
    how (or where) the verdicts were computed."""
    merged.bugs.extend(bugs)
    merged.verified = merged.verified and verdict["verified"]
    if (
        verdict.get("verdict") == verdicts_mod.UNKNOWN
        and merged.unknown_reason is None
    ):
        merged.unknown_reason = verdict.get("unknown_reason")
    merged.spurious_mismatches += verdict.get("spurious_mismatches", 0)
    # Analysis counters are live-execution telemetry: freshly computed
    # partitions contribute theirs; replayed partitions did no symbolic
    # execution this run, so their counters stay out of the merged totals
    # (mirroring how solver_checks is only summed for fresh partitions).
    part_analysis = verdict.get("analysis")
    if not cached and isinstance(part_analysis, dict):
        if merged.analysis is None:
            merged.analysis = dict(part_analysis)
        else:
            merged.analysis["enabled"] = bool(
                merged.analysis.get("enabled") or part_analysis.get("enabled")
            )
            # Execution counters sum across partitions; the prune-pass
            # statics (guards_total/guards_pruned/...) describe the one
            # shared compilation and are identical in every partition, so
            # the first copy stands.
            for key in ("panic_guard_checks", "pruned_guard_hits",
                        "solver_checks_avoided"):
                if key in part_analysis:
                    merged.analysis[key] = (
                        merged.analysis.get(key, 0) + part_analysis[key]
                    )
    for layer in verdict.get("layers", ()):
        merged.layers.append(
            LayerResult(
                f"{part_key}:{layer['name']}",
                "replay" if cached else layer["route"],
                0.0 if cached else layer["elapsed_seconds"],
                layer["paths"],
                layer["cases"],
                layer["verified"],
            )
        )


def finalize_merged(merged: VerificationResult) -> None:
    """Canonical bug order and the overall typed verdict of a merged
    (partitioned) result."""
    merged.bugs.sort(key=bug_sort_key)
    merged.verified = merged.verified and not merged.bugs
    if any(bug.validated for bug in merged.bugs):
        merged.verdict = verdicts_mod.BUG
    elif merged.unknown_reason is not None:
        merged.verdict = verdicts_mod.UNKNOWN
    elif not merged.verified:
        merged.verdict = verdicts_mod.UNKNOWN
        merged.unknown_reason = verdicts_mod.REASON_UNVALIDATED
    else:
        merged.verdict = verdicts_mod.VERIFIED


def deadline_verdict() -> Dict:
    """The synthetic verdict of a partition whose worker stalled past the
    pool's grace period: coverage lost, typed as UNKNOWN — never cached."""
    return {
        "verified": False,
        "verdict": verdicts_mod.UNKNOWN,
        "unknown_reason": verdicts_mod.REASON_DEADLINE,
        "solver_checks": 0,
        "spurious_mismatches": 0,
        "elapsed_seconds": 0.0,
        "layers": [],
        "bugs": [],
    }


def partition_key(encoder: ZoneEncoder, version: str, part_key: str,
                  depth: int, analysis: bool, use_summaries: bool) -> Dict:
    """The verdict key of one by-label partition of ``encoder.zone``. The
    restricted run observes the full zone, so the full label universe and
    top set are pinned (see the module docstring). ``part_key="full"`` is
    the unsplit query space, whose key a cached monolithic verify
    (:func:`verify_cached`) shares."""
    zone = encoder.zone
    return {
        "engine": engine_digest(version),
        "layers": layers_digest(),
        "origin": zone.origin.to_text(),
        "depth": depth,
        "universe": zone.label_universe(),
        "tops": top_labels(zone),
        "partition": part_key,
        "closure": partition_digest(encoder, part_key),
        # Verdicts are bit-identical with pruning on or off, and with or
        # without layer summaries, but the layers and counters a cached
        # verdict replays are not — keep those populations apart.
        "analysis": analysis,
        "use_summaries": use_summaries,
    }


def verify_cached(zone: Zone, version: str, options, cache: SummaryCache, *,
                  budget=None, solver=None) -> VerificationResult:
    """A monolithic verify through the verdict cache.

    The ``full`` partition verdict is looked up before any session is
    built, so a hit compiles and analyses nothing: it replays the stored
    verdict and bugs (in their original order), routes every layer
    ``cache`` and reports 0 solver checks. A miss runs one
    :func:`verify_unit` over the ``full`` unit and stores the
    :func:`verdict_of` record of its result, unless that is UNKNOWN or
    ERROR.
    """
    started = time.perf_counter()
    key = partition_key(
        ZoneEncoder(zone), version, "full", encoding_depth(zone, options.depth),
        options.analysis, options.use_summaries,
    )
    verdict = cache.get("partition", key)
    bugs = replay_bugs(verdict) if verdict is not None else None
    if bugs is None:
        result = verify_unit(zone, version, options, budget=budget,
                             solver=solver)
        store_verdict(cache, key, verdict_of(result))
    else:
        result = VerificationResult(
            version,
            zone.origin.to_text(),
            verdict["verified"],
            bugs=bugs,
            layers=[
                LayerResult(layer["name"], "cache", 0.0, layer["paths"],
                            layer["cases"], layer["verified"])
                for layer in verdict["layers"]
            ],
            spurious_mismatches=verdict["spurious_mismatches"],
            verdict=verdict["verdict"],
            unknown_reason=verdict["unknown_reason"],
        )
        result.elapsed_seconds = time.perf_counter() - started
        # Nothing was compiled, analysed or run: every phase reads 0.0.
        from repro.parallel.counters import perf_phases, unit_perf

        result.phase_seconds = perf_phases(unit_perf(None))
    result.cache_stats = cache.stats()
    return result


@dataclass
class ReuseStats:
    """How much of one incremental run was replayed from the cache."""

    partitions_total: int = 0
    partitions_reused: int = 0
    partitions_recomputed: int = 0
    reused_keys: Tuple[str, ...] = ()
    recomputed_keys: Tuple[str, ...] = ()
    records_changed: int = 0
    reused_checks: int = 0  # solver checks the replayed verdicts originally cost
    fresh_checks: int = 0
    cache: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "partitions_total": self.partitions_total,
            "partitions_reused": self.partitions_reused,
            "partitions_recomputed": self.partitions_recomputed,
            "reused_keys": list(self.reused_keys),
            "recomputed_keys": list(self.recomputed_keys),
            "records_changed": self.records_changed,
            "reused_checks": self.reused_checks,
            "fresh_checks": self.fresh_checks,
            "cache": dict(self.cache),
        }

    def describe(self) -> str:
        return (
            f"reused {self.partitions_reused}/{self.partitions_total} "
            f"partition(s), recomputed "
            f"[{', '.join(self.recomputed_keys) or '-'}]; "
            f"{self.fresh_checks} fresh solver checks "
            f"(+{self.reused_checks} replayed)"
        )


@dataclass
class IncrementalOutcome:
    """A normal verification result plus reuse statistics."""

    result: VerificationResult
    reuse: ReuseStats

    def describe(self) -> str:
        return self.result.describe() + "\n  " + self.reuse.describe()


class IncrementalVerifier:
    """Verifies one engine version against an evolving zone.

    ``cache`` defaults to an in-memory store; pass a
    :class:`~repro.incremental.cache.SummaryCache` with a directory for
    persistence across processes (the watch daemon does). Every knob
    travels in ``options`` (a :class:`~repro.core.options.VerifyOptions`,
    default ``VerifyOptions()``). Every cache miss runs through
    :func:`~repro.parallel.worker.partition_worker`: in-process when
    ``options.workers`` is None or 1, across that many pool processes
    otherwise, so worker counts are interchangeable. Each unit gets a
    fresh ``options.make_budget()`` and, when ``options.faults`` is set,
    its own fault plan derived from the spec and its plan position; pass
    ``faults=None`` to leave an already installed plan in charge.
    """

    def __init__(
        self,
        zone: Zone,
        version: str = "verified",
        cache: Optional[SummaryCache] = None,
        options: Optional[VerifyOptions] = None,
    ) -> None:
        self.zone = zone
        self.version = version
        self.cache = cache if cache is not None else SummaryCache(memory_only=True)
        self.options = options if options is not None else VerifyOptions()
        self.planner = make_planner(self.options.planner)

    # -- the delta entry point -----------------------------------------------

    def apply(self, delta: ZoneDelta) -> IncrementalOutcome:
        """Apply a delta to the current snapshot and re-verify; only
        units the delta invalidates are recomputed."""
        return self.adopt(delta.apply(self.zone), delta)

    def diff_to(self, new_zone: Zone) -> IncrementalOutcome:
        """Adopt ``new_zone`` (diffing against the current snapshot for the
        change count) and re-verify. The watch daemon's entry point."""
        return self.adopt(new_zone)

    def adopt(self, new_zone: Zone, delta: Optional[ZoneDelta] = None) -> IncrementalOutcome:
        """Adopt a pre-built zone snapshot (with the delta that produced
        it, when the caller has one) and re-verify.

        This is the flat-cost entry point for large zones: when ``delta``
        is given, no O(records) diff runs here, and a delta-maintaining
        planner advances its plan in O(affected) — the benchmark drives
        this path to show per-delta cost independent of zone size."""
        if delta is None:
            delta = delta_mod.diff_zones(self.zone, new_zone)
        self.zone = new_zone
        self.planner.notify_delta(delta)
        return self.verify_current(records_changed=len(delta))

    # -- verification ----------------------------------------------------------

    def verify_current(self, records_changed: int = 0) -> IncrementalOutcome:
        started = time.perf_counter()
        merged = VerificationResult(
            self.version, self.zone.origin.to_text(), True
        )
        stats = ReuseStats(records_changed=records_changed)
        reused: List[str] = []
        recomputed: List[str] = []

        # Plan first: units in stable order, each with its cache verdict
        # (when replayable). Misses are then recomputed — in order
        # in-process, or across the pool — and everything merges back in
        # plan order, so the merged result is independent of where or in
        # what order misses were computed.
        units = self._plan_units()
        # One encoder serves every partition key of this zone; the
        # equivalence-class planner keys on its own digests and needs none.
        encoder = (ZoneEncoder(self.zone)
                   if any(unit.kind == KIND_PARTITION for unit in units)
                   else None)
        plan = [(unit, self._verdict_key(unit, encoder)) for unit in units]
        cached: Dict[int, Tuple[Dict, List[BugReport]]] = {}
        for position, (unit, key) in enumerate(plan):
            verdict = self.cache.get("partition", key)
            if verdict is not None:
                replayed = replay_bugs(verdict)
                if replayed is not None:
                    cached[position] = (verdict, replayed)
        misses = [p for p in range(len(plan)) if p not in cached]
        fresh = self._recompute(plan, misses)

        phase_totals: Dict[str, float] = {}
        for position, (unit, key) in enumerate(plan):
            if position in cached:
                verdict, bugs = cached[position]
                reused.append(unit.id)
                stats.reused_checks += verdict.get("solver_checks", 0)
                verdict, bugs, extra = self._expand_unit(unit, verdict, bugs)
                merged.solver_checks += extra
                merge_partition(merged, unit.id, verdict, bugs, cached=True)
                continue
            verdict, bugs, checks, phases = fresh[position]
            recomputed.append(unit.id)
            merged.solver_checks += checks
            for phase, seconds in (phases or {}).items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
            verdict, bugs, extra = self._expand_unit(unit, verdict, bugs)
            merged.solver_checks += extra
            merge_partition(merged, unit.id, verdict, bugs, cached=False)

        finalize_merged(merged)
        merged.elapsed_seconds = time.perf_counter() - started
        if phase_totals:
            merged.phase_seconds = {
                phase: round(seconds, 6)
                for phase, seconds in sorted(phase_totals.items())
            }
        stats.partitions_total = len(reused) + len(recomputed)
        stats.partitions_reused = len(reused)
        stats.partitions_recomputed = len(recomputed)
        stats.reused_keys = tuple(reused)
        stats.recomputed_keys = tuple(recomputed)
        stats.fresh_checks = merged.solver_checks
        stats.cache = self.cache.stats()
        return IncrementalOutcome(merged, stats)

    # -- miss recomputation ----------------------------------------------------

    def _recompute(
        self, plan: List[Tuple[PlanUnit, Dict]], misses: List[int]
    ) -> Dict[int, Tuple[Dict, List[BugReport], int, Dict[str, float]]]:
        """Compute the cache misses, each through
        :func:`~repro.parallel.worker.partition_worker`, across
        ``options.workers`` processes (None or 1: in-process, where no
        payload is pickled).

        Cache reads and writes stay in the parent (workers open no
        cache). A worker death reruns the same payload through the same
        function here, so the unit keeps its fault plan; a stall degrades
        the unit to ``UNKNOWN(wall-clock-deadline)``.

        Partition units carry the full zone; equivalence-class units
        carry their small projected zones — at million-record scale the
        full zone never crosses the pool boundary at all.
        """
        from repro.parallel.counters import perf_phases
        from repro.parallel.pool import DIED, TIMEOUT, grace_seconds, run_units
        from repro.parallel.worker import partition_worker

        options = self.options
        payloads = []
        for p in misses:
            unit = plan[p][0]
            if unit.kind == KIND_PARTITION:
                zone, unit_options = self.zone, options
            else:
                # Equivalence-class units verify against their projected
                # zone — the representative's dependency closure — with
                # the depth pinned to the full zone's so gap decoding and
                # witness codes line up with the cache key.
                zone = self.planner.projected_zone(unit)
                unit_options = options.with_(depth=self._encoding_depth())
            payloads.append(
                {
                    "index": p,  # stable plan position → deterministic fault plan
                    "zone": zone,
                    "part_key": unit.part_key,
                    "gap_code": unit.gap_code,
                    "version": self.version,
                    "options": unit_options,
                }
            )
        fresh: Dict[int, Tuple[Dict, List[BugReport], int, Dict[str, float]]] = {}
        for pos, status, value in run_units(
            partition_worker, payloads, options.workers or 1,
            grace_seconds(options.budget_seconds),
        ):
            position = misses[pos]
            if status == TIMEOUT:
                fresh[position] = (deadline_verdict(), [], 0, {})
                continue
            if status == DIED:
                value = partition_worker(payloads[pos])
            verdict = value["verdict"]
            store_verdict(self.cache, plan[position][1], verdict)
            fresh[position] = (
                verdict,
                [bug_from_json(b) for b in verdict["bugs"]],
                verdict["solver_checks"],
                perf_phases(value.get("perf")),
            )
        return fresh

    # -- internals -------------------------------------------------------------

    def _plan_units(self) -> List[PlanUnit]:
        origin_depth = len(self.zone.origin)
        if origin_depth == 0 or self._encoding_depth() <= origin_depth:
            # The query space cannot be split below this origin; fall back
            # to one unrestricted pseudo-unit regardless of planner.
            return [
                PlanUnit(
                    id="full",
                    kind=KIND_PARTITION,
                    part_key="full",
                    members=("full",),
                )
            ]
        return self.planner.plan(self.zone)

    def _encoding_depth(self) -> int:
        return encoding_depth(self.zone, self.options.depth)

    def _verdict_key(self, unit: PlanUnit,
                     encoder: Optional[ZoneEncoder]) -> Dict:
        if unit.kind == KIND_PARTITION:
            return partition_key(
                encoder, self.version, unit.part_key,
                self._encoding_depth(), self.options.analysis,
                self.options.use_summaries,
            )
        # Equivalence-class keys deliberately omit the zone-wide universe
        # and top set — the whole point of the planner. What they pin
        # instead fully determines the projected session: the unit's
        # α-abstracted content digest, the concrete representative label
        # (α⁻¹), and the concrete gap code the miss unit's witness uses.
        return {
            "planner": self.planner.name,
            "engine": engine_digest(self.version),
            "layers": layers_digest(),
            "origin": self.zone.origin.to_text(),
            "depth": self._encoding_depth(),
            "unit": unit.id,
            "kind": unit.kind,
            "digest": unit.digest,
            "representative": unit.representative,
            "gap_code": unit.gap_code,
            "analysis": self.options.analysis,
            "use_summaries": self.options.use_summaries,
        }

    # -- class-member expansion ------------------------------------------------

    def _expand_unit(
        self, unit: PlanUnit, verdict: Dict, bugs: List[BugReport]
    ) -> Tuple[Dict, List[BugReport], int]:
        """Expand a class unit's representative verdict to its members.

        Always live, never cached: the cache stores only the
        representative's verdict, and translation re-validates every
        member natively against its own closure (with symbolic fallback
        when the collapse hypothesis fails). Non-class units pass through
        untouched."""
        if unit.kind != KIND_SUB or len(unit.members) == 0:
            return verdict, bugs, 0
        from repro.incremental import expand

        if verdict.get("verdict") == verdicts_mod.BUG or bugs:
            member_bugs, checks, reason = expand.expand_bugs(
                self.planner, unit, self.version, self.zone.origin, bugs,
                self._member_fallback,
            )
            bugs = []  # superseded by the per-member re-validated reports
        elif verdict.get("verdict") == verdicts_mod.VERIFIED:
            member_bugs, checks, reason = expand.expand_verified(
                self.planner, unit, self.version, self.zone.origin,
                self._member_fallback,
            )
        else:
            # UNKNOWN/ERROR: the unit-level verdict already covers every
            # member; expansion has nothing sound to add.
            return verdict, bugs, 0
        if member_bugs or reason is not None or not bugs:
            verdict = dict(verdict)
            verdict["verified"] = bool(verdict.get("verified")) and not any(
                b.validated for b in member_bugs
            )
            if reason is not None and verdict.get("unknown_reason") is None:
                verdict["verdict"] = verdicts_mod.UNKNOWN
                verdict["unknown_reason"] = reason
            elif any(b.validated for b in member_bugs):
                verdict["verdict"] = verdicts_mod.BUG
        return verdict, bugs + member_bugs, checks

    def _member_fallback(self, member: str) -> VerificationResult:
        """Full symbolic verify of one class member (hypothesis-violation
        escape hatch), restricted to the member's own subtree."""
        return verify_unit(
            self.planner.member_zone(member), self.version,
            self.options.with_(depth=self._encoding_depth()),
            delta_mod.SUB_PREFIX + member,
        )
