"""Interprocedural analysis: call graphs and bottom-up function summaries.

The intraprocedural :class:`~repro.analysis.domains.GuardDomain` loses
every fact at a call site — an opaque callee havocs the destination and
turns the list epoch, so ``ce = shared_prefix_len(a, b)`` tells the
caller nothing about ``ce`` even though the callee provably returns a
value in ``[0, min(len(a), len(b))]``. This package closes that gap:

- :mod:`repro.analysis.interproc.callgraph` builds the whole-program
  call graph over a set of AbsLLVM modules and orders its strongly
  connected components bottom-up (callees before callers);
- :mod:`repro.analysis.interproc.summaries` runs the guard domain over
  each function in that order and extracts a :class:`FunctionSummary` —
  append-purity (does the callee ever turn the caller's list epoch?),
  difference constraints relating an integer return value to the
  entry lengths of list arguments, and the label-relation facts a
  boolean return value implies (``is_prefix(a, b)`` returning True
  means ``len(a) <= len(b)``). Recursive components are havocked.

Summaries are *consumed* by the same domain: ``GuardDomain(cfg,
summaries=...)`` applies them at call sites instead of havocking, which
is what lets the pruning pass discharge wire-format and name-walk
guards whose proofs span a call.

Everything here is deterministic — orders derive from module insertion
order and block labels, never from hashes of ids — and the whole
summary table folds into a stable digest
(:func:`~repro.analysis.interproc.summaries.summaries_digest`) that
rides the verification cache keys and telemetry.

The table :func:`~repro.analysis.interproc.summaries.compute_summaries`
returns (a :class:`~repro.analysis.interproc.summaries.SummaryTable`)
also keeps each non-recursive function's fixpoint, which the pruning
pass reuses instead of analysing the function a second time.
"""

from repro.analysis.interproc.callgraph import CallGraph
from repro.analysis.interproc.summaries import (
    SUMMARY_SCHEMA_VERSION,
    FunctionSummary,
    SummaryTable,
    compute_summaries,
    summaries_digest,
)

__all__ = [
    "CallGraph",
    "FunctionSummary",
    "SUMMARY_SCHEMA_VERSION",
    "SummaryTable",
    "compute_summaries",
    "summaries_digest",
]
