"""Per-phase performance counters for pooled verification runs.

Workers report a small timing/cache dictionary per completed unit (built
by :func:`unit_perf` from the unit's :class:`VerificationResult`); the
parent folds them into one :class:`PerfCounters` that the ``--json`` CLI
output and the worker-scaling benchmark consume. Everything in here is
timing/throughput telemetry — none of it participates in a canonical
report, so two runs may disagree on every counter while being
bit-identical where it matters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional


def unit_perf(result, cache=None) -> Dict[str, float]:
    """The per-unit perf record a worker ships back to the parent."""
    perf: Dict[str, float] = {
        "compile_seconds": 0.0,
        "summarize_seconds": 0.0,
        "resolve_seconds": 0.0,
        "solve_seconds": 0.0,
        "elapsed_seconds": 0.0,
        "cache_hits": 0,
        "cache_misses": 0,
        "solver_checks_avoided": 0,
        "pruned_guard_hits": 0,
        "guards_pruned": 0,
        "guard_prepass_checks": 0,
        "guard_prepass_unsat": 0,
    }
    if result is not None:
        phases = result.phase_seconds or {}
        perf["compile_seconds"] = phases.get("compile", 0.0)
        perf["summarize_seconds"] = phases.get("summarize", 0.0)
        perf["resolve_seconds"] = phases.get("resolve", 0.0)
        perf["solve_seconds"] = phases.get("solve", 0.0)
        perf["elapsed_seconds"] = result.elapsed_seconds
        stats = result.cache_stats or {}
        perf["cache_hits"] = stats.get("hits", 0)
        perf["cache_misses"] = stats.get("misses", 0)
        analysis = getattr(result, "analysis", None) or {}
        perf["solver_checks_avoided"] = analysis.get("solver_checks_avoided", 0)
        perf["pruned_guard_hits"] = analysis.get("pruned_guard_hits", 0)
        perf["guards_pruned"] = analysis.get("guards_pruned", 0)
        perf["guard_prepass_checks"] = analysis.get("guard_prepass_checks", 0)
        perf["guard_prepass_unsat"] = analysis.get("guard_prepass_unsat", 0)
    if cache is not None:
        stats = cache.stats()
        perf["cache_hits"] = stats.get("hits", 0)
        perf["cache_misses"] = stats.get("misses", 0)
    return perf


def perf_phases(perf: Optional[Dict]) -> Dict[str, float]:
    """A worker perf record reshaped as ``phase_seconds`` keys."""
    if not perf:
        return {}
    return {
        "compile": perf.get("compile_seconds", 0.0),
        "summarize": perf.get("summarize_seconds", 0.0),
        "resolve": perf.get("resolve_seconds", 0.0),
        "solve": perf.get("solve_seconds", 0.0),
    }


@dataclass
class PerfCounters:
    """Aggregate across one pooled run (campaign or partitioned verify)."""

    workers: int = 1
    units_total: int = 0
    units_completed: int = 0
    units_replayed: int = 0  # resumed from a checkpoint, no perf recorded
    units_fallback: int = 0  # recomputed in-parent after a worker died
    units_timed_out: int = 0
    compile_seconds: float = 0.0
    summarize_seconds: float = 0.0
    resolve_seconds: float = 0.0
    solve_seconds: float = 0.0  # inside Solver.check; overlaps the two above
    busy_seconds: float = 0.0  # sum of per-unit wall time across workers
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    # Static-analysis telemetry (the panic-pruning pass): solver queries
    # the executors never issued, elided-guard crossings, and how many
    # guards the pass discharged statically.
    solver_checks_avoided: int = 0
    pruned_guard_hits: int = 0
    guards_pruned: int = 0
    # The solver-side prepass: residual guard checks answered by the
    # relational domain alone, without building a formula.
    guard_prepass_checks: int = 0
    guard_prepass_unsat: int = 0
    _started: float = field(default_factory=time.perf_counter, repr=False)

    def absorb(self, perf: Optional[Dict]) -> None:
        """Fold one worker's per-unit record into the aggregate."""
        self.units_completed += 1
        if not perf:
            return
        self.compile_seconds += perf.get("compile_seconds", 0.0)
        self.summarize_seconds += perf.get("summarize_seconds", 0.0)
        self.resolve_seconds += perf.get("resolve_seconds", 0.0)
        self.solve_seconds += perf.get("solve_seconds", 0.0)
        self.busy_seconds += perf.get("elapsed_seconds", 0.0)
        self.cache_hits += int(perf.get("cache_hits", 0))
        self.cache_misses += int(perf.get("cache_misses", 0))
        self.solver_checks_avoided += int(perf.get("solver_checks_avoided", 0))
        self.pruned_guard_hits += int(perf.get("pruned_guard_hits", 0))
        self.guard_prepass_checks += int(perf.get("guard_prepass_checks", 0))
        self.guard_prepass_unsat += int(perf.get("guard_prepass_unsat", 0))
        # Every unit compiles the same modules, so the prune-pass static
        # is a per-run property, not a per-unit one: max, not sum.
        self.guards_pruned = max(
            self.guards_pruned, int(perf.get("guards_pruned", 0))
        )

    def finish(self) -> "PerfCounters":
        self.wall_seconds = time.perf_counter() - self._started
        return self

    # -- derived -------------------------------------------------------------

    @property
    def units_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.units_completed / self.wall_seconds

    @property
    def cache_hit_rate(self) -> Optional[float]:
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return None
        return self.cache_hits / lookups

    @property
    def parallel_efficiency(self) -> Optional[float]:
        """busy/(wall*workers): 1.0 means every worker was saturated."""
        if self.wall_seconds <= 0 or self.workers <= 0:
            return None
        return self.busy_seconds / (self.wall_seconds * self.workers)

    def to_json(self) -> Dict:
        hit_rate = self.cache_hit_rate
        efficiency = self.parallel_efficiency
        return {
            "workers": self.workers,
            "units_total": self.units_total,
            "units_completed": self.units_completed,
            "units_replayed": self.units_replayed,
            "units_fallback": self.units_fallback,
            "units_timed_out": self.units_timed_out,
            "compile_seconds": round(self.compile_seconds, 6),
            "summarize_seconds": round(self.summarize_seconds, 6),
            "resolve_seconds": round(self.resolve_seconds, 6),
            "solve_seconds": round(self.solve_seconds, 6),
            "busy_seconds": round(self.busy_seconds, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "units_per_second": round(self.units_per_second, 4),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "solver_checks_avoided": self.solver_checks_avoided,
            "pruned_guard_hits": self.pruned_guard_hits,
            "guards_pruned": self.guards_pruned,
            "guard_prepass_checks": self.guard_prepass_checks,
            "guard_prepass_unsat": self.guard_prepass_unsat,
            "cache_hit_rate": None if hit_rate is None else round(hit_rate, 4),
            "parallel_efficiency": (
                None if efficiency is None else round(efficiency, 4)
            ),
        }
