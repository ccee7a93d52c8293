"""The one options carrier shared by every verification entry point.

Three PRs of growth left three inconsistent ways to configure a run:
``verify_engine(**kwargs)`` forwarded an opaque kwargs-bag into
:class:`~repro.core.pipeline.VerificationSession`, ``run_campaign`` took a
parallel set of ``budget_seconds``/``budget_fuel`` keywords, and the watch
daemon had its own constructor vocabulary. :class:`VerifyOptions` replaces
all of that: a frozen, JSON-serializable dataclass holding every *plain
data* knob a verification run needs. Live objects (an open
:class:`~repro.incremental.cache.SummaryCache`, a running
:class:`~repro.resilience.Budget`, a custom solver) stay explicit keyword
arguments — they cannot cross a process boundary, which the parallel
executor requires of everything in here.

Because the dataclass is frozen it is handed verbatim to a unit's
worker function (the :mod:`repro.parallel` pool pickles it with the
rest of the payload); :meth:`VerifyOptions.to_json` /
:meth:`VerifyOptions.from_json` are its JSON form.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class VerifyOptions:
    """Every plain-data knob of one verification run.

    For ``verify_engine`` with the by-label planner, ``workers=None``
    means one monolithic session. Any integer (including 1) opts into
    the unit-based executor, whose reports are bit-identical across
    worker counts; the partitioned merge labels layers differently from
    a monolithic session, so ``workers=1`` must take the same path as
    ``workers=8``. An :class:`~repro.incremental.engine.IncrementalVerifier`
    and a campaign each have one unit loop: ``None`` and 1 both run its
    units in-process.
    """

    #: Symbolic query depth; None derives it from the zone.
    depth: Optional[int] = None
    #: Executor hard limits (forwarded to the symbolic executor).
    max_paths: int = 200000
    max_steps: int = 20_000_000
    #: ``False`` is the ablation that inlines every layer.
    use_summaries: bool = True
    #: Cooperative budget: wall-clock deadline and/or step fuel. Each
    #: unit gets a *fresh* budget built from these, so the bound is per
    #: unit rather than per run.
    budget_seconds: Optional[float] = None
    fuel: Optional[int] = None
    #: Persistent cache directory (each worker opens its own handle on it;
    #: entry publication is atomic, so concurrent writers are safe).
    cache_dir: Optional[str] = None
    #: None = in-process; N >= 1 = pooled executor with N processes.
    workers: Optional[int] = None
    #: Fault-plan spec string (see :func:`repro.resilience.faults.parse_spec`).
    #: Unit-based verifies and campaigns derive a plan *per unit id*, for
    #: every worker count, so injection stays deterministic regardless of
    #: scheduling; a monolithic verify installs one whole-run plan.
    faults: Optional[str] = None
    #: Campaigns: run the differential smoke test before each proof.
    smoke_first: bool = True
    #: Static analysis: run the panic-pruning pass between compilation and
    #: symbolic execution. ``False`` is the ablation (and escape hatch).
    analysis: bool = True
    #: Debug cross-check: at the first symbolic crossing of each elided
    #: guard, re-ask the solver that the panic side really is infeasible.
    analysis_check: bool = False
    #: Query planner: ``"by-label"`` (one unit per below-apex subtree, the
    #: historical default and reference oracle) or ``"equivalence-class"``
    #: (one unit per behavioural class — O(classes) solver work).
    planner: str = "by-label"

    # -- derivation ---------------------------------------------------------

    def with_(self, **changes) -> "VerifyOptions":
        """A copy with ``changes`` applied (frozen-dataclass ``replace``)."""
        return dataclasses.replace(self, **changes)

    def make_budget(self):
        """A fresh one-unit Budget, or None when unbounded."""
        if self.budget_seconds is None and self.fuel is None:
            return None
        from repro.resilience import Budget

        return Budget(wall_seconds=self.budget_seconds, fuel=self.fuel)

    def make_cache(self):
        """A cache handle on ``cache_dir``, or None when uncached."""
        if self.cache_dir is None:
            return None
        from repro.incremental import SummaryCache

        return SummaryCache(cache_dir=self.cache_dir)

    def make_fault_plan(self):
        """The whole-run fault plan (a monolithic verify), or None."""
        if self.faults is None:
            return None
        from repro.resilience import faults

        return faults.parse_spec(self.faults)

    # -- wire format --------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "VerifyOptions":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_args(cls, args) -> "VerifyOptions":
        """Build from the CLI's shared runtime flags (absent flags keep
        the dataclass defaults, so every subcommand can use this)."""
        fields = {
            "budget_seconds": getattr(args, "budget_seconds", None),
            "fuel": getattr(args, "fuel", None),
            "cache_dir": getattr(args, "cache", None),
            "workers": getattr(args, "workers", None),
            "faults": getattr(args, "faults", None),
            "planner": getattr(args, "planner", None),
        }
        options = cls(**{k: v for k, v in fields.items() if v is not None})
        if getattr(args, "no_analysis", False):
            options = options.with_(analysis=False)
        if getattr(args, "analysis_check", False):
            options = options.with_(analysis_check=True)
        return options
