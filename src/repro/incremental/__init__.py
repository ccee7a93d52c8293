"""Incremental verification: digests, deltas, caching, the delta-driven
engine and the watch daemon.

``digest``/``delta``/``cache``/``serialize`` are dependency-light;
``engine`` and ``watch`` import the core pipeline, so they are exposed
lazily to keep ``repro.core.pipeline`` ``import``-able from here without a
cycle.
"""

from repro.incremental.cache import SummaryCache, default_cache_dir
from repro.incremental.delta import (
    DeltaImpact,
    Partition,
    RecordChange,
    ZoneDelta,
    delta_impact,
    diff_zones,
    partition_digest,
    random_delta,
)
from repro.incremental.digest import (
    engine_digest,
    layers_digest,
    records_digest,
    source_digest,
    subtree_records,
    top_labels,
    zone_digest,
)

_LAZY = {
    "QueryPlanner": ("repro.incremental.planner.protocol", "QueryPlanner"),
    "PlanUnit": ("repro.incremental.planner.protocol", "PlanUnit"),
    "make_planner": ("repro.incremental.planner.protocol", "make_planner"),
    "ByLabelPlanner": ("repro.incremental.planner.by_label", "ByLabelPlanner"),
    "ECPlanner": ("repro.incremental.planner.ec", "ECPlanner"),
    "LabelGraph": ("repro.incremental.planner.label_graph", "LabelGraph"),
    "IncrementalVerifier": ("repro.incremental.engine", "IncrementalVerifier"),
    "IncrementalOutcome": ("repro.incremental.engine", "IncrementalOutcome"),
    "ReuseStats": ("repro.incremental.engine", "ReuseStats"),
    "bug_sort_key": ("repro.incremental.engine", "bug_sort_key"),
    "WatchDaemon": ("repro.incremental.watch", "WatchDaemon"),
    "WatchEvent": ("repro.incremental.watch", "WatchEvent"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "SummaryCache",
    "default_cache_dir",
    "DeltaImpact",
    "Partition",
    "RecordChange",
    "ZoneDelta",
    "delta_impact",
    "diff_zones",
    "partition_digest",
    "random_delta",
    "engine_digest",
    "layers_digest",
    "records_digest",
    "source_digest",
    "subtree_records",
    "top_labels",
    "zone_digest",
    "QueryPlanner",
    "PlanUnit",
    "make_planner",
    "ByLabelPlanner",
    "ECPlanner",
    "LabelGraph",
    "IncrementalVerifier",
    "IncrementalOutcome",
    "ReuseStats",
    "bug_sort_key",
    "WatchDaemon",
    "WatchEvent",
]
