"""Fault-tolerant verification runtime.

The verifier runs continuously against an in-production engine, so the
verifier itself must survive solver blowups, partial results, corrupted
caches and file races without losing proof progress. This package holds
the four pieces that make that true:

- :mod:`repro.resilience.verdicts` — the typed verdict taxonomy
  (``VERIFIED`` / ``BUG`` / ``UNKNOWN(reason)`` / ``ERROR(taxonomy)``);
- :mod:`repro.resilience.budget` — cooperative wall-clock/fuel budgets
  threaded through the executor, the solver and the pipeline;
- :mod:`repro.resilience.checkpoint` — crash-safe JSONL campaign
  checkpoints with atomic publication;
- :mod:`repro.resilience.faults` — deterministic fault injection at named
  sites, plus :mod:`repro.resilience.supervise` (retry/backoff, circuit
  breaker) for the zone tailer.
"""

from repro.resilience.budget import Budget, BudgetExhausted
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointWriter,
    load as load_checkpoint,
    unit_address,
)
from repro.resilience.faults import (
    FaultPlan,
    InjectedFault,
    KNOWN_SITES,
)
from repro.resilience.supervise import CircuitBreaker, RetryPolicy, retry_call
from repro.resilience.verdicts import (
    BUG,
    ERROR,
    UNKNOWN,
    VERIFIED,
    Verdict,
    classify_error,
)
from repro.resilience import faults, verdicts

__all__ = [
    "Budget",
    "BudgetExhausted",
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "CheckpointWriter",
    "load_checkpoint",
    "unit_address",
    "FaultPlan",
    "InjectedFault",
    "KNOWN_SITES",
    "CircuitBreaker",
    "RetryPolicy",
    "retry_call",
    "VERIFIED",
    "BUG",
    "UNKNOWN",
    "ERROR",
    "Verdict",
    "classify_error",
    "faults",
    "verdicts",
]
