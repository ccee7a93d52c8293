"""The one-stop programmatic entry point: ``repro.Session``.

Three PRs of growth left the library's users juggling module-level entry
points with divergent vocabularies (``verify_engine``, ``run_campaign``,
``WatchDaemon``) plus hand-built caches and budgets. A :class:`Session`
bundles the run-scoped state — one cache, one
:class:`~repro.core.options.VerifyOptions` — and exposes the four
operating modes behind it::

    from repro import Session

    session = Session(cache_dir="/tmp/repro-cache", budget=30.0, workers=4)
    result = session.verify("zones/prod.zone")          # one zone
    report = session.campaign(100, "v2.0")              # N generated zones
    daemon = session.watch("zones/prod.zone")           # re-verify on change
    daemon.run(max_updates=3)
    server = session.serve("zones/prod.zone")           # gated serving plane

Every method accepts keyword overrides for any :class:`VerifyOptions`
field, applied on top of the session's defaults for that call only.
``Session.verify(zone, version)`` returns exactly what
:func:`~repro.core.pipeline.verify_engine` returns for the same options
— the facade adds no semantics, only shared configuration.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Optional, Union

from repro.core.options import VerifyOptions
from repro.dns.zone import Zone

#: Built-in corpus names :func:`load_zone` resolves.
BUILTIN_ZONES = ("evaluation", "minimal", "paper", "chain")


def load_zone(source: Union[Zone, str], origin: Optional[str] = None) -> Zone:
    """A :class:`Zone` from whatever identifies one.

    Accepts a ``Zone`` (returned as-is), a builtin corpus name
    (``evaluation``/``minimal``/``paper``/``chain``), ``"-"`` for a zone
    file on stdin, or a zone file path. ``origin`` applies to relative
    zone files.
    """
    from repro.dns.zonefile import parse_zone_text
    from repro.zonegen import corpus

    if isinstance(source, Zone):
        return source
    if source == "-":
        return parse_zone_text(sys.stdin.read(), origin=origin)
    builtin = {
        "evaluation": corpus.evaluation_zone,
        "minimal": corpus.minimal_zone,
        "paper": corpus.paper_example_zone,
        "chain": corpus.chain_zone,
    }
    if source in builtin:
        return builtin[source]()
    with open(source) as handle:
        return parse_zone_text(handle.read(), origin=origin)


class Session:
    """Run-scoped verification state: one cache, one options bundle.

    ``cache_dir=None`` keeps the cache in memory — a repeated verify of
    the same zone within the session replays its stored verdict, but
    nothing touches disk. ``budget`` is the per-unit wall-clock deadline
    in seconds (the keyword mirrors the CLI's ``--budget-seconds``);
    ``workers=None`` runs in-process (a verify monolithically), any
    integer fans out through :mod:`repro.parallel`. Arbitrary additional
    ``VerifyOptions`` fields can be set via ``options`` or as extra
    keyword arguments. A disk-backed ``cache`` handle also sets
    ``options.cache_dir`` when no directory is given otherwise.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        budget: Optional[float] = None,
        fuel: Optional[int] = None,
        workers: Optional[int] = None,
        options: Optional[VerifyOptions] = None,
        cache=None,
        **option_fields,
    ) -> None:
        base = options if options is not None else VerifyOptions()
        changes = dict(option_fields)
        if cache_dir is not None:
            changes["cache_dir"] = cache_dir
        if budget is not None:
            changes["budget_seconds"] = budget
        if fuel is not None:
            changes["fuel"] = fuel
        if workers is not None:
            changes["workers"] = workers
        if (cache is not None and not cache.memory_only
                and cache_dir is None and base.cache_dir is None):
            # A disk cache lends its directory to the options, so units
            # that open their own handle (campaigns) share it too.
            changes["cache_dir"] = str(cache.cache_dir)
        self.options = base.with_(**changes) if changes else base
        if cache is not None:
            self.cache = cache
        else:
            from repro.incremental import SummaryCache

            if self.options.cache_dir is not None:
                self.cache = SummaryCache(cache_dir=self.options.cache_dir)
            else:
                self.cache = SummaryCache(memory_only=True)

    def _options(self, overrides: Dict) -> VerifyOptions:
        return self.options.with_(**overrides) if overrides else self.options

    # -- the four operating modes -------------------------------------------

    def verify(self, zone: Union[Zone, str], version: str = "verified",
               **overrides):
        """Verify ``version`` on one zone (a ``Zone``, path, or builtin
        name); returns a :class:`~repro.core.pipeline.VerificationResult`
        — the same object ``verify_engine`` returns for these options."""
        from repro.core.pipeline import verify_engine

        return verify_engine(
            load_zone(zone),
            version,
            options=self._options(overrides),
            cache=self.cache,
        )

    def campaign(
        self,
        num_zones: int = 10,
        versions: Union[str, Iterable[str]] = "verified",
        seed: int = 2023,
        checkpoint=None,
        resume: bool = False,
        **overrides,
    ):
        """Verify one or more engine versions across ``num_zones``
        generated zones. A single version name returns its
        :class:`~repro.core.campaign.CampaignReport`; an iterable returns
        ``{version: report}`` (checkpoints get a ``.<version>`` suffix so
        the runs stay resumable independently).

        Extra keyword arguments split by name: :class:`VerifyOptions`
        fields override this call's options, everything else goes to the
        zone :class:`~repro.zonegen.GeneratorConfig` (``num_hosts=2``,
        ...).
        """
        import dataclasses

        from repro.core.campaign import run_campaign

        option_names = {f.name for f in dataclasses.fields(VerifyOptions)}
        option_overrides = {k: v for k, v in overrides.items()
                            if k in option_names}
        config_kwargs = {k: v for k, v in overrides.items()
                         if k not in option_names}
        options = self._options(option_overrides)
        single = isinstance(versions, str)
        names = [versions] if single else list(versions)
        reports = {}
        for version in names:
            target = checkpoint
            if target is not None and not single:
                target = f"{target}.{version}"
            reports[version] = run_campaign(
                version,
                num_zones=num_zones,
                seed=seed,
                options=options,
                checkpoint=target,
                resume=resume,
                **config_kwargs,
            )
        return reports[versions] if single else reports

    def campaign_service(
        self,
        corpus_dir,
        versions: Iterable[str] = ("verified", "v2.0"),
        seed: int = 2023,
        units: Optional[int] = None,
        duration: Optional[float] = None,
        resume: bool = False,
        status_port: Optional[int] = 0,
        **overrides,
    ):
        """A :class:`~repro.campaign.CampaignService` rooted at
        ``corpus_dir``, using this session's worker/budget/fault options.

        The service is returned un-started: ``run()`` blocks until the
        campaign drains (``units``/``duration`` bound it;
        ``request_stop()`` from another thread or a signal handler drains
        gracefully). Extra keyword arguments override
        :class:`VerifyOptions` fields for this service, or — when they
        name a :class:`~repro.campaign.CampaignServiceConfig` field such
        as ``batch_tasks``, ``weights``, ``minimize`` or
        ``max_failures`` — configure the service itself.
        """
        import dataclasses

        from repro.campaign import CampaignService, CampaignServiceConfig

        config_names = {f.name for f in
                        dataclasses.fields(CampaignServiceConfig)}
        config_kwargs = {k: v for k, v in overrides.items()
                         if k in config_names}
        option_overrides = {k: v for k, v in overrides.items()
                            if k not in config_names}
        config = CampaignServiceConfig(
            corpus_dir=str(corpus_dir),
            seed=seed,
            versions=tuple(versions),
            units=units,
            duration=duration,
            resume=resume,
            status_port=status_port,
            **config_kwargs,
        )
        return CampaignService(config,
                               options=self._options(option_overrides))

    def watch(self, path, version: str = "verified", interval: float = 1.0,
              max_failures: int = 5, log=None, **overrides):
        """A :class:`~repro.incremental.watch.WatchDaemon` tailing
        ``path`` with this session's cache and worker/budget options.
        Returned un-started; call ``run()`` (blocking poll loop) or
        ``poll_once()`` (one step, tests)."""
        from repro.incremental.watch import WatchDaemon

        options = self._options(overrides)
        return WatchDaemon(
            path,
            version=version,
            cache=self.cache,
            interval=interval,
            log=log,
            max_failures=max_failures,
            options=options,
        )

    def serve(
        self,
        zone: Union[Zone, str] = "evaluation",
        version: str = "verified",
        host: str = "127.0.0.1",
        port: int = 0,
        status_port: Optional[int] = 0,
        rate_limit: Optional[float] = None,
        selfcheck_every: int = 0,
        **overrides,
    ):
        """A :class:`~repro.serve.ZoneServer` serving ``zone`` with
        ``version``, its publish gate wired to this session's cache and
        worker/budget options (so gated re-verifications replay partition
        verdicts from the session's cache). Returned
        un-started: ``await server.start()`` inside a running loop, or
        ``asyncio.run(server.run_forever())``. Zone updates go through
        ``await server.publish(new_zone)`` and only take effect when the
        delta re-verifies."""
        from repro.serve import ZoneServer

        options = self._options(overrides)
        return ZoneServer(
            load_zone(zone),
            version,
            host=host,
            port=port,
            status_port=status_port,
            rate_limit=rate_limit,
            selfcheck_every=selfcheck_every,
            cache=self.cache,
            options=options,
        )
