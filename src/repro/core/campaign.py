"""Verification campaigns: the paper's continuous operating mode.

Section 6.5/9: each run of the overall verification proves the engine
correct and safe *for one concrete zone snapshot*; the production workflow
runs it over tens of thousands of randomly generated zone configurations
(plus the live ones) on every engine iteration. :func:`run_campaign` is
that loop: a stream of zones, one pipeline run per (zone, version) fanned
through the :mod:`repro.parallel` pool (in-process for one worker),
aggregated into a coverage/verdict report. Its unit (:func:`run_unit`)
and checkpointed unit loop (:func:`run_unit_loop`) are also what the
long-running :mod:`repro.campaign` service runs.

For speed, each zone is first smoke-tested differentially (milliseconds);
zones the differential already refutes can optionally skip the heavier
proof — matching how the production pipeline triages, while keeping the
proof available per zone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.options import VerifyOptions
from repro.core.pipeline import VerificationResult
from repro.dns.zone import Zone
from repro.frontend.errors import GoPyError
from repro.resilience import verdicts as verdicts_mod
from repro.resilience.checkpoint import CheckpointWriter, unit_address
from repro.resilience.faults import InjectedFault
from repro.symex.errors import SymexError
from repro.testing import differential_test
from repro.zonegen import GeneratorConfig, ZoneGenerator


@dataclass
class ZoneVerdict:
    """Typed outcome for one (zone, version) unit.

    ``verdict`` is one of the :mod:`repro.resilience.verdicts` kinds; an
    ERROR unit (compile failure, injected fault, IO) records its taxonomy
    in ``error_class`` and the campaign *continues* — one broken unit
    never aborts the run.
    """

    zone_index: int
    zone_origin: str
    records: int
    verified: bool
    bug_categories: Tuple[str, ...]
    elapsed_seconds: float
    solver_checks: int
    differential_divergences: int
    verdict: str = verdicts_mod.VERIFIED
    unknown_reason: Optional[str] = None
    error_class: Optional[str] = None
    error_detail: str = ""

    def to_json(self) -> Dict:
        return {
            "zone_index": self.zone_index,
            "zone_origin": self.zone_origin,
            "records": self.records,
            "verified": self.verified,
            "bug_categories": list(self.bug_categories),
            "elapsed_seconds": self.elapsed_seconds,
            "solver_checks": self.solver_checks,
            "differential_divergences": self.differential_divergences,
            "verdict": self.verdict,
            "unknown_reason": self.unknown_reason,
            "error_class": self.error_class,
            "error_detail": self.error_detail,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "ZoneVerdict":
        return cls(
            zone_index=data["zone_index"],
            zone_origin=data["zone_origin"],
            records=data["records"],
            verified=data["verified"],
            bug_categories=tuple(data["bug_categories"]),
            elapsed_seconds=data["elapsed_seconds"],
            solver_checks=data["solver_checks"],
            differential_divergences=data["differential_divergences"],
            verdict=data.get("verdict", verdicts_mod.VERIFIED),
            unknown_reason=data.get("unknown_reason"),
            error_class=data.get("error_class"),
            error_detail=data.get("error_detail", ""),
        )


@dataclass
class CampaignReport:
    """Aggregate over all zones for one engine version."""

    version: str
    verdicts: List[ZoneVerdict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Per-phase perf counters (parallel executor): timings, cache hit
    #: rate, units/sec. Timing-only — excluded from ``canonical_json``.
    perf: Optional[Dict] = None

    @property
    def zones_run(self) -> int:
        return len(self.verdicts)

    @property
    def zones_verified(self) -> int:
        return sum(1 for v in self.verdicts if v.verified)

    @property
    def zones_refuted(self) -> int:
        return self.zones_run - self.zones_verified

    @property
    def zones_unknown(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == verdicts_mod.UNKNOWN)

    @property
    def zones_errored(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == verdicts_mod.ERROR)

    def canonical_json(self) -> str:
        """The deterministic identity of this report: everything except
        wall-clock timings. An interrupted-and-resumed campaign must be
        bit-identical to an uninterrupted one under this projection."""
        units = []
        for verdict in self.verdicts:
            unit = verdict.to_json()
            del unit["elapsed_seconds"]
            units.append(unit)
        return json.dumps(
            {"version": self.version, "verdicts": units},
            sort_keys=True,
            separators=(",", ":"),
        )

    def to_json(self) -> Dict:
        """Machine-readable report (the campaign ``--json`` contract):
        the canonical identity fields plus timings and perf counters."""
        return {
            "version": self.version,
            "zones_run": self.zones_run,
            "zones_verified": self.zones_verified,
            "zones_refuted": self.zones_refuted,
            "zones_unknown": self.zones_unknown,
            "zones_errored": self.zones_errored,
            "elapsed_seconds": self.elapsed_seconds,
            "verdicts": [verdict.to_json() for verdict in self.verdicts],
            "category_histogram": self.category_histogram(),
            "perf": None if self.perf is None else dict(self.perf),
        }

    def category_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for verdict in self.verdicts:
            for category in verdict.bug_categories:
                histogram[category] = histogram.get(category, 0) + 1
        return histogram

    def describe(self) -> str:
        lines = [
            f"campaign {self.version}: {self.zones_verified}/{self.zones_run} zones "
            f"verified ({self.elapsed_seconds:.1f}s total)"
        ]
        if self.zones_unknown:
            lines.append(f"  {self.zones_unknown} zone(s) UNKNOWN (budget/solver)")
        for verdict in self.verdicts:
            if verdict.verdict == verdicts_mod.ERROR:
                lines.append(
                    f"  zone #{verdict.zone_index} ERROR "
                    f"({verdict.error_class}): {verdict.error_detail}"
                )
        histogram = self.category_histogram()
        for category in sorted(histogram):
            lines.append(f"  {category}: on {histogram[category]} zone(s)")
        slowest = max(self.verdicts, key=lambda v: v.elapsed_seconds, default=None)
        if slowest is not None:
            lines.append(
                f"  slowest zone: #{slowest.zone_index} ({slowest.records} rrs, "
                f"{slowest.elapsed_seconds:.1f}s, {slowest.solver_checks} checks)"
            )
        return "\n".join(lines)


#: Exceptions a unit may die of without aborting the campaign; the plain
#: RuntimeError of the unsoundness cross-check deliberately is NOT among
#: them.
UNIT_ERRORS = (GoPyError, SymexError, InjectedFault, OSError)


def run_unit(
    index: int,
    zone: Zone,
    version: str,
    options: VerifyOptions,
    cache=None,
    base_zone: Optional[Zone] = None,
) -> Tuple[ZoneVerdict, Optional[VerificationResult], Optional[Dict]]:
    """Verify one (zone, version) campaign unit.

    This is THE unit of work of both campaign drivers — their pool
    workers call it (:func:`repro.parallel.worker.campaign_unit_worker`),
    in-process or not, which is what makes verdicts bit-identical across
    worker counts. Without ``base_zone`` the unit is one from-scratch
    :func:`~repro.incremental.engine.verify_unit` (through
    :func:`~repro.incremental.engine.verify_cached` when a ``cache`` is
    given); with it (a campaign *mutation* unit) the
    base is verified through the incremental engine, warming its
    partition verdicts, and the unit's verdict is that of adopting
    ``zone`` via :meth:`IncrementalVerifier.diff_to`. ``options.smoke_first``
    runs the differential tester first; a zone it refutes must not prove.

    Returns the typed verdict, the underlying :class:`VerificationResult`
    (None when the unit died of a typed error) so callers can harvest
    perf statistics, and, for mutation units, the partition-reuse counts
    (telemetry only: they depend on cache warmth).
    """
    from repro.incremental.engine import (
        IncrementalVerifier,
        verify_cached,
        verify_unit,
    )

    started = time.perf_counter()
    divergences = 0
    reuse = None
    try:
        if options.smoke_first:
            smoke = differential_test(zone, version, check_reference=False)
            divergences = len(smoke.divergences)
        if base_zone is None and cache is not None:
            result = verify_cached(zone, version, options, cache)
        elif base_zone is None:
            result = verify_unit(zone, version, options)
        else:
            # The campaign unit is already the parallel unit: its nested
            # verifier runs in-process, and ``faults=None`` leaves the
            # unit's own installed fault plan in charge.
            verifier = IncrementalVerifier(
                base_zone, version, cache=cache,
                options=options.with_(workers=None, faults=None))
            verifier.verify_current()
            outcome = verifier.diff_to(zone)
            result = outcome.result
            reuse = {
                "records_changed": outcome.reuse.records_changed,
                "partitions_total": outcome.reuse.partitions_total,
                "partitions_reused": outcome.reuse.partitions_reused,
                "partitions_recomputed": outcome.reuse.partitions_recomputed,
            }
    except UNIT_ERRORS as exc:
        error_class, detail = verdicts_mod.classify_error(exc)
        verdict = _unit_verdict(
            index, zone, verdicts_mod.ERROR, divergences=divergences,
            elapsed_seconds=time.perf_counter() - started,
            error_class=error_class, error_detail=detail)
        return verdict, None, None
    if (
        divergences
        and result.verified
        and result.verdict == verdicts_mod.VERIFIED
    ):
        raise RuntimeError(
            f"unsound: differential refuted unit {index} but the "
            f"proof passed ({version})"
        )
    verdict = _unit_verdict(
        index, zone, result.verdict, divergences, result.elapsed_seconds,
        verified=result.verified,
        bug_categories=tuple(result.bug_categories()),
        solver_checks=result.solver_checks,
        unknown_reason=result.unknown_reason,
        error_class=result.error_class,
        error_detail=result.error_detail,
    )
    return verdict, result, reuse


def _unit_verdict(index: int, zone: Zone, kind: str, divergences: int = 0,
                  elapsed_seconds: float = 0.0, **fields) -> ZoneVerdict:
    """Build a unit's verdict — the one place a campaign verdict is made.
    ``fields`` override the defaults of a unit that produced no proof
    result (unverified, no bugs, no solver checks)."""
    fields.setdefault("verified", False)
    fields.setdefault("bug_categories", ())
    fields.setdefault("solver_checks", 0)
    return ZoneVerdict(
        zone_index=index,
        zone_origin=zone.origin.to_text(),
        records=len(zone),
        elapsed_seconds=elapsed_seconds,
        differential_divergences=divergences,
        verdict=kind,
        **fields,
    )


@dataclass(frozen=True)
class CampaignUnit:
    """One unit as the unit loop sees it, whichever driver made it.

    ``index`` is the stable unit id (it seeds the unit's fault plan and
    names its verdict); ``key`` is the checkpoint address material.
    """

    index: int
    zone: Zone
    version: str
    key: Dict
    base_zone: Optional[Zone] = None


def run_unit_loop(
    units: Sequence[CampaignUnit],
    options: VerifyOptions,
    perf,
    writer: Optional[CheckpointWriter] = None,
    completed: Optional[Dict[str, Dict]] = None,
) -> Iterator[Tuple[int, ZoneVerdict, bool, Optional[Dict]]]:
    """The checkpointed unit loop both campaign drivers run.

    Yields ``(position, verdict, replayed, value)`` per unit of ``units``
    — replayed units first, in order, then computed ones in completion
    order; ``value`` is the worker's return (None when replayed or
    stalled). A unit whose address is in ``completed`` (the checkpoint's
    map) is replayed instead of run. The rest fan out across
    ``options.workers`` processes (None or 1: in-process) under the pool's
    :func:`~repro.parallel.pool.grace_seconds` watchdog. A unit whose
    worker died is recomputed here — it is deterministic, so that yields
    exactly what the lost worker would have returned; a unit whose worker
    stalled is typed ``UNKNOWN(wall-clock-deadline)``, the analogue of a
    cooperative budget expiry enforced from outside. Every computed
    verdict is appended to ``writer`` (and ``completed``) before it is
    yielded, and its perf record folded into ``perf`` (a
    :class:`~repro.parallel.counters.PerfCounters`).
    """
    from repro.parallel.pool import DIED, OK, grace_seconds, run_units
    from repro.parallel.worker import campaign_unit_worker

    completed = completed if completed is not None else {}
    pending: List[int] = []
    for pos, unit in enumerate(units):
        cached = completed.get(unit_address(unit.key))
        if cached is None:
            pending.append(pos)
            continue
        perf.units_replayed += 1
        yield pos, ZoneVerdict.from_json(cached), True, None

    payloads = [
        {
            "index": unit.index,
            "zone": unit.zone,
            "base_zone": unit.base_zone,
            "version": unit.version,
            "options": options,
        }
        for unit in (units[pos] for pos in pending)
    ]
    for i, status, value in run_units(
        campaign_unit_worker, payloads, options.workers or 1,
        grace_seconds(options.budget_seconds),
    ):
        unit = units[pending[i]]
        if status == DIED:
            value = campaign_unit_worker(payloads[i])
            perf.units_fallback += 1
            status = OK
        if status == OK:
            verdict = ZoneVerdict.from_json(value["verdict"])
            perf.absorb(value.get("perf"))
        else:  # TIMEOUT
            verdict = _unit_verdict(
                unit.index, unit.zone, verdicts_mod.UNKNOWN,
                unknown_reason=verdicts_mod.REASON_DEADLINE)
            perf.units_timed_out += 1
        if writer is not None:
            # Records land in completion order; the file is a map keyed
            # by unit address, so replay order is irrelevant.
            writer.append(unit.key, verdict.to_json())
            completed[unit_address(unit.key)] = verdict.to_json()
        yield pending[i], verdict, False, value


def run_campaign(
    version: str,
    num_zones: int = 10,
    seed: int = 2023,
    zones: Optional[Sequence[Zone]] = None,
    options: Optional[VerifyOptions] = None,
    checkpoint=None,
    resume: bool = False,
    **config_overrides,
) -> CampaignReport:
    """Verify ``version`` on every zone; returns the aggregate report.

    Zones come from an explicit ``zones`` list or are generated from
    ``GeneratorConfig(seed=seed, **config_overrides)``. Configuration
    travels only in ``options`` (default ``VerifyOptions()``); with
    ``options.cache_dir`` set, every unit opens its own handle on that
    directory. ``options.smoke_first`` runs the differential tester
    before each proof (the prover must refute every zone the tester does).

    Units fan out across ``options.workers`` processes; None or 1 runs
    them in-process. Every count runs the same worker function on the
    same inputs, so the canonical report is bit-identical for any count.
    Each unit gets a fresh budget and its own fault plan derived from
    ``(options.faults, unit index)``; exhaustion records an ``UNKNOWN``
    verdict, a unit that dies of a typed error records ``ERROR``, and the
    campaign moves on.

    ``checkpoint`` names a JSONL file that receives one durable record
    per completed unit, written by this process only (workers return
    verdicts); with ``resume=True`` the units already in it are replayed
    bit-identically (verdicts, solver-check counts — everything but
    wall-clock time) instead of re-run, so a SIGKILLed campaign restarts
    where it died.
    """
    from repro.incremental.digest import engine_digest, zone_digest
    from repro.parallel.counters import PerfCounters

    options = options if options is not None else VerifyOptions()
    if zones is not None and config_overrides:
        raise TypeError(
            "run_campaign: generator settings given with explicit zones: "
            + ", ".join(sorted(config_overrides)))
    if zones is None:
        config = GeneratorConfig(seed=seed, **config_overrides)
        zones = ZoneGenerator(config).stream(num_zones)
    zones = list(zones)

    report = CampaignReport(version)
    started = time.perf_counter()
    perf = PerfCounters(workers=options.workers or 1, units_total=len(zones))
    engine = engine_digest(version)
    digests = [zone_digest(zone) for zone in zones]
    units = [
        CampaignUnit(index, zone, version,
                     {"index": index, "zone": digest, "engine": engine})
        for index, (zone, digest) in enumerate(zip(zones, digests))
    ]
    writer, completed = None, None
    if checkpoint is not None:
        header = {"kind": "campaign", "version": version, "engine": engine,
                  "smoke_first": options.smoke_first, "zones": digests}
        writer, completed = CheckpointWriter.open(checkpoint, header,
                                                  resume=resume)

    verdicts: Dict[int, ZoneVerdict] = {}
    for pos, verdict, _replayed, _value in run_unit_loop(
        units, options, perf, writer, completed
    ):
        verdicts[pos] = verdict
    report.verdicts = [verdicts[index] for index in range(len(zones))]
    report.elapsed_seconds = time.perf_counter() - started
    report.perf = perf.finish().to_json()
    return report
