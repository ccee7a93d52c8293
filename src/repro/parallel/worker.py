"""Top-level worker functions the process pool executes.

Both workers take one JSON/pickle-safe payload dict and return a
JSON-safe dict — the contract :func:`repro.parallel.pool.run_units`
needs for any start method. They are deliberately thin: each one
reconstructs its inputs, delegates to the *same* code the in-process
paths run (:func:`repro.core.campaign.run_unit` for campaign units, a
restricted :class:`~repro.core.pipeline.VerificationSession` for
query-space partitions), and serializes the outcome. Determinism across
worker counts follows from that sharing plus three per-unit rules:

- every unit builds a **fresh budget** from the options (the bound is
  per unit, not per run, so completion order cannot move a deadline);
- every unit derives its **own fault plan** from the spec and its stable
  unit id (:func:`repro.resilience.faults.unit_plan`) — global consult
  order would be scheduler-dependent;
- every unit opens its **own cache handle** on the shared directory
  (entry publication is atomic; keys of distinct units are disjoint).
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext
from typing import Dict

from repro.resilience import faults as faults_mod


def _options_of(payload: Dict):
    from repro.core.options import VerifyOptions

    return VerifyOptions.from_json(payload["options"])


def campaign_unit_worker(payload: Dict) -> Dict:
    """Verify one campaign unit (zone × version) and ship its verdict.

    Payload: ``index`` (stable unit id), ``zone_pickle`` (the parent
    already generated/loaded the zone — workers never re-generate, so
    explicit zone lists and generated streams behave identically),
    ``version``, ``options`` (:meth:`VerifyOptions.to_json`).

    The unsoundness cross-check (differential refutes, proof passes)
    raises here; the pool propagates it to the parent, which aborts the
    campaign.
    """
    from repro.core.campaign import run_unit
    from repro.parallel.counters import unit_perf

    index = payload["index"]
    zone = pickle.loads(payload["zone_pickle"])
    options = _options_of(payload)
    cache = options.make_cache()
    plan = faults_mod.unit_plan(options.faults, index)
    scope = faults_mod.active(plan) if plan is not None else nullcontext()
    with scope:
        verdict, result = run_unit(
            index,
            zone,
            payload["version"],
            smoke_first=options.smoke_first,
            cache=cache,
            budget_seconds=options.budget_seconds,
            budget_fuel=options.fuel,
        )
    return {
        "index": index,
        "verdict": verdict.to_json(),
        "perf": unit_perf(result, cache),
    }


def mutation_unit_worker(payload: Dict) -> Dict:
    """Verify one campaign *mutation* unit through the incremental path.

    Payload: ``index`` (stable unit id), ``zone_pickle`` (the mutated
    zone), ``base_zone_pickle`` (its predecessor), ``version``,
    ``options``. The worker verifies the base with
    :class:`~repro.incremental.engine.IncrementalVerifier` (warming the
    partition cache), then adopts the mutant via :meth:`diff_to` — so the
    unit exercises exactly the delta-invalidation machinery the watch
    daemon and the serve-plane gate rely on, with real partition reuse.
    The unit's verdict is the *mutant's*; reuse statistics ride along as
    telemetry (they depend on cache warmth and are never canonical).

    The unsoundness cross-check matches :func:`repro.core.campaign.run_unit`:
    a differential-refuted mutant whose incremental proof passes raises.
    """
    import time

    from repro.core.campaign import UNIT_ERRORS
    from repro.incremental.engine import IncrementalVerifier
    from repro.parallel.counters import unit_perf
    from repro.resilience import verdicts as verdicts_mod
    from repro.testing import differential_test

    index = payload["index"]
    zone = pickle.loads(payload["zone_pickle"])
    base_zone = pickle.loads(payload["base_zone_pickle"])
    options = _options_of(payload)
    cache = options.make_cache()
    if cache is None:
        from repro.incremental.cache import SummaryCache

        cache = SummaryCache(memory_only=True)
    plan = faults_mod.unit_plan(options.faults, index)
    scope = faults_mod.active(plan) if plan is not None else nullcontext()
    version = payload["version"]
    started = time.perf_counter()
    divergences = 0
    incremental = None
    with scope:
        try:
            if options.smoke_first:
                smoke = differential_test(zone, version, check_reference=False)
                divergences = len(smoke.divergences)
            verifier = IncrementalVerifier(
                base_zone, version, cache=cache, options=options,
                **options.session_kwargs(),
            )
            verifier.verify_current()  # warm the base's partition verdicts
            outcome = verifier.diff_to(zone)
            result = outcome.result
            incremental = {
                "records_changed": outcome.reuse.records_changed,
                "partitions_total": outcome.reuse.partitions_total,
                "partitions_reused": outcome.reuse.partitions_reused,
                "partitions_recomputed": outcome.reuse.partitions_recomputed,
            }
        except UNIT_ERRORS as exc:
            error_class, detail = verdicts_mod.classify_error(exc)
            verdict = {
                "zone_index": index,
                "zone_origin": zone.origin.to_text(),
                "records": len(zone),
                "verified": False,
                "bug_categories": [],
                "elapsed_seconds": time.perf_counter() - started,
                "solver_checks": 0,
                "differential_divergences": divergences,
                "verdict": verdicts_mod.ERROR,
                "unknown_reason": None,
                "error_class": error_class,
                "error_detail": detail,
            }
            return {"index": index, "verdict": verdict, "perf": None,
                    "incremental": None}
    if (
        divergences
        and result.verified
        and result.verdict == verdicts_mod.VERIFIED
    ):
        raise RuntimeError(
            f"unsound: differential refuted mutation unit {index} but the "
            f"incremental proof passed ({version})"
        )
    verdict = {
        "zone_index": index,
        "zone_origin": zone.origin.to_text(),
        "records": len(zone),
        "verified": result.verified,
        "bug_categories": list(result.bug_categories()),
        "elapsed_seconds": time.perf_counter() - started,
        "solver_checks": result.solver_checks,
        "differential_divergences": divergences,
        "verdict": result.verdict,
        "unknown_reason": result.unknown_reason,
        "error_class": result.error_class,
        "error_detail": result.error_detail or "",
    }
    return {
        "index": index,
        "verdict": verdict,
        "perf": unit_perf(result, cache),
        "incremental": incremental,
    }


def campaign_service_worker(payload: Dict) -> Dict:
    """The campaign service's pool entry point: dispatch by unit shape.

    ``run_units`` fans one worker function over a whole batch; a service
    batch mixes from-scratch units (generated/regression zones) with
    incremental mutation units, so this thin dispatcher routes each
    payload to the right specialist. Presence of ``base_zone_pickle`` is
    the discriminator — only mutation units carry a predecessor.
    """
    if payload.get("base_zone_pickle") is not None:
        return mutation_unit_worker(payload)
    value = campaign_unit_worker(payload)
    value.setdefault("incremental", None)
    return value


def partition_worker(payload: Dict) -> Dict:
    """Verify one query-plan unit of one zone.

    Payload: ``zone_pickle`` (the full zone for by-label partitions, a
    projected closure zone for equivalence-class units), ``part_key``
    (either a :class:`~repro.incremental.delta.Partition` key string or
    one of the planner-level ``gap``/``star`` keys), the optional
    ``gap_code`` pinning a gap unit's query label, ``version``,
    ``options``, and optionally ``index`` (the unit's stable plan
    position, seeding its per-unit fault plan).

    Returns the unit's cacheable verdict dict (the same shape
    :class:`~repro.incremental.engine.IncrementalVerifier` stores) plus
    perf. ``verdict`` is None when the unit's bugs do not serialize; the
    parent then recomputes that unit in-process to keep the live bug
    objects, exactly as the sequential path would.
    """
    from repro.core.pipeline import VerificationSession
    from repro.incremental.engine import verdict_of
    from repro.incremental.planner.protocol import unit_preconditions
    from repro.parallel.counters import unit_perf

    zone = pickle.loads(payload["zone_pickle"])
    part_key = payload["part_key"]
    options = _options_of(payload)
    cache = options.make_cache()
    if cache is None:
        from repro.incremental.cache import SummaryCache

        cache = SummaryCache(memory_only=True)
    plan = faults_mod.unit_plan(options.faults, payload.get("index", 0))
    scope = faults_mod.active(plan) if plan is not None else nullcontext()
    with scope:
        session = VerificationSession(
            zone,
            payload["version"],
            cache=cache,
            budget=options.make_budget(),
            **options.session_kwargs(),
        )
        pre = unit_preconditions(
            part_key, payload.get("gap_code"), session.query_encoding
        )
        if pre:
            session.restrict(pre)
        result = session.verify(use_summaries=options.use_summaries)
    return {
        "part_key": part_key,
        "verdict": verdict_of(result),
        "solver_checks": result.solver_checks,
        "perf": unit_perf(result, cache),
    }
