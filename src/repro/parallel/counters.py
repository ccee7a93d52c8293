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


#: Every key of the per-unit perf record, in record order:
#: ``(record key, result attribute, key within it)``. :func:`unit_perf`
#: reads each row off the unit's result (a ``None`` key reads the
#: attribute itself), :func:`perf_phases` inverts the ``phase_seconds``
#: rows, and :meth:`PerfCounters.absorb` folds each into the same-named
#: field — except that ``elapsed_seconds`` sums into ``busy_seconds`` and
#: ``guards_pruned`` is a max.
PERF_KEYS = (
    ("compile_seconds", "phase_seconds", "compile"),
    ("analysis_seconds", "phase_seconds", "analysis"),
    ("summarize_seconds", "phase_seconds", "summarize"),
    ("resolve_seconds", "phase_seconds", "resolve"),
    ("solve_seconds", "phase_seconds", "solve"),
    ("elapsed_seconds", "elapsed_seconds", None),
    ("cache_hits", "cache_stats", "hits"),
    ("cache_misses", "cache_stats", "misses"),
    ("solver_checks_avoided", "analysis", "solver_checks_avoided"),
    ("pruned_guard_hits", "analysis", "pruned_guard_hits"),
    ("guards_pruned", "analysis", "guards_pruned"),
    ("guard_prepass_checks", "analysis", "guard_prepass_checks"),
    ("guard_prepass_unsat", "analysis", "guard_prepass_unsat"),
)


def _zero(key: str):
    return 0.0 if key.endswith("_seconds") else 0


def _field(key: str) -> str:
    """The :class:`PerfCounters` field a record key folds into."""
    return "busy_seconds" if key == "elapsed_seconds" else key


def unit_perf(result, cache=None) -> Dict[str, float]:
    """The per-unit perf record a worker ships back to the parent."""
    perf: Dict[str, float] = {key: _zero(key) for key, _, _ in PERF_KEYS}
    if result is not None:
        for key, attr, inner in PERF_KEYS:
            value = getattr(result, attr, None)
            if inner is not None:
                value = (value or {}).get(inner, perf[key])
            perf[key] = value
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
        inner: perf.get(key, 0.0)
        for key, attr, inner in PERF_KEYS
        if attr == "phase_seconds"
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
    compile_seconds: float = 0.0  # frontend only
    analysis_seconds: float = 0.0  # summaries + panic pruning
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
        for key, _, _ in PERF_KEYS:
            value = perf.get(key, _zero(key))
            if key.endswith("_seconds"):
                name = _field(key)
                setattr(self, name, getattr(self, name) + value)
            elif key == "guards_pruned":
                # Every unit compiles the same modules, so the prune-pass
                # static is a per-run property, not a per-unit one: max,
                # not sum.
                self.guards_pruned = max(self.guards_pruned, int(value))
            else:
                setattr(self, key, getattr(self, key) + int(value))

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
        payload: Dict = {
            "workers": self.workers,
            "units_total": self.units_total,
            "units_completed": self.units_completed,
            "units_replayed": self.units_replayed,
            "units_fallback": self.units_fallback,
            "units_timed_out": self.units_timed_out,
        }
        for key, _, _ in PERF_KEYS:
            name = _field(key)
            value = getattr(self, name)
            if key.endswith("_seconds"):
                value = round(value, 6)
            payload[name] = value
            if name == "busy_seconds":
                payload["wall_seconds"] = round(self.wall_seconds, 6)
                payload["units_per_second"] = round(self.units_per_second, 4)
        payload["cache_hit_rate"] = (
            None if hit_rate is None else round(hit_rate, 4)
        )
        payload["parallel_efficiency"] = (
            None if efficiency is None else round(efficiency, 4)
        )
        return payload
