"""DNS-V: automated verification of an in-production DNS authoritative engine.

Reproduction of the SOSP 2023 paper "Automated Verification of an
In-Production DNS Authoritative Engine" (Zheng, Liu, et al.).

The top-level package re-exports the session facade — the recommended
programmatic entry point (see ``docs/api.md``)::

    from repro import Session

    session = Session(workers=4, budget=30.0)
    result = session.verify("zones/prod.zone", "v2.0")

The package is organised bottom-up:

- :mod:`repro.dns` — DNS domain model (names, records, zones, messages).
- :mod:`repro.solver` — SMT-lite decision procedure for linear integer
  arithmetic with models (the paper uses Z3 on the same fragment).
- :mod:`repro.ir` — AbsLLVM intermediate representation (paper section 5.1).
- :mod:`repro.frontend` — restricted-Python ("GoPy") to AbsLLVM compiler,
  standing in for GoLLVM and inserting explicit panic blocks (section 4.1).
- :mod:`repro.symex` — full-path symbolic executor with the flexible memory
  model supporting partial abstraction (section 5.1/5.2).
- :mod:`repro.summary` — automated specification summarization (section 5.3).
- :mod:`repro.refine` — refinement checking against manual specs (5.2).
- :mod:`repro.spec` — manual library specs and the SCALE-style top-level
  specification of authoritative resolution (section 6.1/6.3).
- :mod:`repro.engine` — the in-production-style DNS authoritative engine in
  several versions, with the paper's Table-2 bugs seeded (section 6).
- :mod:`repro.zonegen` — randomized zone-configuration generator (6.5/9).
- :mod:`repro.core` — the DNS-V pipeline tying everything together.
- :mod:`repro.parallel` — process-pool executor for campaigns and
  partitioned verifies, deterministic across worker counts.
- :mod:`repro.resilience` — typed verdicts, budgets, checkpoints, faults.
- :mod:`repro.incremental` — zone deltas, verdict cache, watch daemon.
- :mod:`repro.testing` — SCALE-style differential tester used to validate
  counterexamples.
- :mod:`repro.reporting` — regeneration of the paper's tables and figures.
"""

__version__ = "1.0.0"

# Everything here pulls in the whole pipeline; exported lazily so
# ``import repro`` stays cheap for subpackage users (and fork-safe for
# pool workers that only need one module).
_LAZY = {
    "Session": ("repro.api", "Session"),
    "load_zone": ("repro.api", "load_zone"),
    "VerifyOptions": ("repro.core.options", "VerifyOptions"),
    "verify_engine": ("repro.core.pipeline", "verify_engine"),
    "VerificationResult": ("repro.core.pipeline", "VerificationResult"),
    "run_campaign": ("repro.core.campaign", "run_campaign"),
    "CampaignReport": ("repro.core.campaign", "CampaignReport"),
    "ZoneVerdict": ("repro.core.campaign", "ZoneVerdict"),
    "QueryPlanner": ("repro.incremental.planner.protocol", "QueryPlanner"),
    "PlanUnit": ("repro.incremental.planner.protocol", "PlanUnit"),
    "make_planner": ("repro.incremental.planner.protocol", "make_planner"),
    "ByLabelPlanner": ("repro.incremental.planner.by_label", "ByLabelPlanner"),
    "ECPlanner": ("repro.incremental.planner.ec", "ECPlanner"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = ["__version__", *_LAZY]
