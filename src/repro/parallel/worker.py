"""Top-level worker functions the process pool executes.

Two workers, each taking one payload dict of picklable objects (zones,
a :class:`~repro.core.options.VerifyOptions`) and returning a JSON-safe
dict — the contract :func:`repro.parallel.pool.run_units` needs for any
start method. In-process runs (one worker) hand the payload over as is;
only the pool serializes what it ships.
:func:`campaign_unit_worker` runs the units of both campaign drivers (the
one-shot :func:`~repro.core.campaign.run_campaign` and the
:mod:`repro.campaign` service, generated and mutation units alike) and
:func:`partition_worker` the query-plan units of one verify, whatever the
worker count. They are deliberately thin: each one delegates to the
*same* code every path runs (:func:`repro.core.campaign.run_unit`,
:func:`repro.incremental.engine.verify_unit`) and serializes the
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

from contextlib import nullcontext
from typing import Dict

from repro.resilience import faults as faults_mod


def _fault_scope(options, index: int):
    """The unit's own fault plan, installed for a with-block (nothing is
    installed when ``options.faults`` is None)."""
    plan = faults_mod.unit_plan(options.faults, index)
    return faults_mod.active(plan) if plan is not None else nullcontext()


def campaign_unit_worker(payload: Dict) -> Dict:
    """Verify one campaign unit (zone × version) and ship its verdict.

    Payload: ``index`` (stable unit id), ``zone`` (the parent already
    generated/loaded it — workers never re-generate, so explicit zone
    lists and generated streams behave identically), ``base_zone`` (a
    mutation unit's predecessor, else None), ``version``, ``options``.

    The unsoundness cross-check (differential refutes, proof passes)
    raises here; the pool propagates it to the parent, which aborts the
    campaign.
    """
    from repro.core.campaign import run_unit
    from repro.parallel.counters import unit_perf

    index = payload["index"]
    options = payload["options"]
    cache = options.make_cache()
    with _fault_scope(options, index):
        verdict, result, reuse = run_unit(
            index, payload["zone"], payload["version"], options, cache,
            base_zone=payload["base_zone"],
        )
    return {
        "index": index,
        "verdict": verdict.to_json(),
        "perf": unit_perf(result, cache),
        "incremental": reuse,
    }


def partition_worker(payload: Dict) -> Dict:
    """Verify one query-plan unit of one zone.

    Payload: ``index`` (the unit's stable plan position, seeding its
    per-unit fault plan), ``zone`` (the full zone for by-label
    partitions, a projected closure zone for equivalence-class units),
    ``part_key`` (either a :class:`~repro.incremental.delta.Partition` key
    string or one of the planner-level ``gap``/``star`` keys),
    ``gap_code`` (the query label a gap unit pins, else None),
    ``version`` and ``options``.

    Returns the unit's cacheable verdict dict (the same shape
    :class:`~repro.incremental.engine.IncrementalVerifier` stores) plus
    perf.
    """
    from repro.incremental.engine import verdict_of, verify_unit
    from repro.parallel.counters import unit_perf

    part_key = payload["part_key"]
    options = payload["options"]
    with _fault_scope(options, payload["index"]):
        result = verify_unit(payload["zone"], payload["version"], options,
                             part_key, payload["gap_code"])
    return {
        "part_key": part_key,
        "verdict": verdict_of(result),
        "solver_checks": result.solver_checks,
        "perf": unit_perf(result),
    }
