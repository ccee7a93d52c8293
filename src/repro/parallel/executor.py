"""The partitioned verify: one zone's query-space units across the pool.

:func:`verify_partitioned` fans the query-plan units of a *single* verify
across the pool via :class:`~repro.incremental.engine.IncrementalVerifier`
and returns the deterministically merged :class:`VerificationResult`.
(Campaigns fan out whole (zone, version) units through the same pool
primitive; that loop is :func:`repro.core.campaign.run_campaign`.)

Determinism is structural, not accidental: units are indexed before
anything runs, every worker executes the exact function the in-process
path runs on plain-data inputs derived only from ``(options, unit id)``,
and the parent assembles results by index — completion order can only
affect timings.
"""

from __future__ import annotations

from repro.dns.zone import Zone


def verify_partitioned(zone: Zone, version: str = "verified", options=None,
                       cache=None):
    """One verify, its query-space partitions fanned across the pool.

    Routes through :class:`~repro.incremental.engine.IncrementalVerifier`
    (partition split, verdict cache, deterministic merge) with its
    pooled miss-recompute path enabled; the merged
    :class:`~repro.core.pipeline.VerificationResult` is identical for
    any worker count because every count — including 1 — runs the same
    worker function and the same JSON round-trip per partition.
    """
    from repro.core.options import VerifyOptions
    from repro.incremental.engine import IncrementalVerifier

    if options is None:
        options = VerifyOptions(workers=1)
    if cache is None:
        cache = options.make_cache()
    verifier = IncrementalVerifier(
        zone,
        version,
        cache=cache,
        depth=options.depth,
        workers=options.workers if options.workers is not None else 1,
        options=options,
        max_paths=options.max_paths,
        max_steps=options.max_steps,
    )
    outcome = verifier.verify_current()
    result = outcome.result
    if result.cache_stats is None:
        result.cache_stats = outcome.reuse.cache
    return result
