"""Top-level worker functions the process pool executes.

Two workers, each taking one JSON/pickle-safe payload dict and
returning a JSON-safe dict — the contract
:func:`repro.parallel.pool.run_units` needs for any start method:
:func:`campaign_unit_worker` for the units of both campaign drivers (the
one-shot :func:`~repro.core.campaign.run_campaign` and the
:mod:`repro.campaign` service, generated and mutation units alike) and
:func:`partition_worker` for the query-space units of one verify. They
are deliberately thin: each one reconstructs its inputs, delegates to
the *same* code the in-process paths run
(:func:`repro.core.campaign.run_unit`, a restricted
:class:`~repro.core.pipeline.VerificationSession`), and serializes the
outcome. Determinism across worker counts follows from that sharing
plus three per-unit rules:

- every unit builds a **fresh budget** from the options (the bound is
  per unit, not per run, so completion order cannot move a deadline);
- every unit derives its **own fault plan** from the spec and its stable
  unit id (:func:`repro.resilience.faults.unit_plan`) — global consult
  order would be scheduler-dependent;
- the verdict cache is consulted once per unit, by one process: a
  campaign unit opens its own handle on the shared directory for its
  verdict record (entry publication is atomic; keys of distinct units
  are disjoint), while a partition unit opens none — the parent looks
  it up and stores what the worker returns.
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
    ``base_zone_pickle`` (a mutation unit's predecessor, else None),
    ``version``, ``options`` (:meth:`VerifyOptions.to_json`).

    The unsoundness cross-check (differential refutes, proof passes)
    raises here; the pool propagates it to the parent, which aborts the
    campaign.
    """
    from repro.core.campaign import run_unit
    from repro.parallel.counters import unit_perf

    index = payload["index"]
    zone = pickle.loads(payload["zone_pickle"])
    base_zone = payload.get("base_zone_pickle")
    if base_zone is not None:
        base_zone = pickle.loads(base_zone)
    options = _options_of(payload)
    cache = options.make_cache()
    plan = faults_mod.unit_plan(options.faults, index)
    scope = faults_mod.active(plan) if plan is not None else nullcontext()
    with scope:
        verdict, result, reuse = run_unit(
            index, zone, payload["version"], options, cache,
            base_zone=base_zone,
        )
    return {
        "index": index,
        "verdict": verdict.to_json(),
        "perf": unit_perf(result, cache),
        "incremental": reuse,
    }


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
    perf.
    """
    from repro.core.pipeline import VerificationSession
    from repro.incremental.engine import verdict_of
    from repro.incremental.planner.protocol import unit_preconditions
    from repro.parallel.counters import unit_perf

    zone = pickle.loads(payload["zone_pickle"])
    part_key = payload["part_key"]
    options = _options_of(payload)
    plan = faults_mod.unit_plan(options.faults, payload.get("index", 0))
    scope = faults_mod.active(plan) if plan is not None else nullcontext()
    with scope:
        session = VerificationSession(
            zone,
            payload["version"],
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
        "perf": unit_perf(result),
    }
