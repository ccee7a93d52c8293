"""The ``repro.api`` facade: Session round-trips, zone loading, exports."""

import pytest

from repro.api import BUILTIN_ZONES, Session, load_zone
from repro.core.options import VerifyOptions
from repro.core.pipeline import verify_engine
from repro.dns.zone import Zone
from repro.zonegen import GeneratorConfig, ZoneGenerator, corpus

TINY = dict(num_hosts=2, num_wildcards=1, num_delegations=0,
            num_cnames=1, num_mx=0)


class TestLoadZone:
    def test_zone_passes_through(self):
        zone = corpus.minimal_zone()
        assert load_zone(zone) is zone

    def test_builtin_names(self):
        for name in BUILTIN_ZONES:
            assert isinstance(load_zone(name), Zone)

    def test_path(self, tmp_path):
        from repro.dns.zonefile import zone_to_text

        path = tmp_path / "z.zone"
        path.write_text(zone_to_text(corpus.minimal_zone()))
        zone = load_zone(str(path))
        assert len(zone) == len(corpus.minimal_zone())

    def test_missing_path_raises(self):
        with pytest.raises(OSError):
            load_zone("/nonexistent/zone/file.zone")


class TestSessionConfig:
    def test_kwargs_become_options(self):
        session = Session(budget=12.5, fuel=1000, workers=3,
                          cache_dir="/tmp/x")
        assert session.options == VerifyOptions(
            budget_seconds=12.5, fuel=1000, workers=3, cache_dir="/tmp/x"
        )

    def test_default_cache_is_memory_only(self):
        assert Session().cache.memory_only is True

    def test_cache_dir_opens_disk_cache(self, tmp_path):
        session = Session(cache_dir=str(tmp_path / "cache"))
        assert session.cache.memory_only is False
        assert str(session.cache.cache_dir) == str(tmp_path / "cache")

    def test_options_object_plus_overrides(self):
        base = VerifyOptions(max_paths=5)
        session = Session(options=base, workers=2)
        assert session.options.max_paths == 5
        assert session.options.workers == 2

    def test_top_level_import(self):
        import repro

        assert repro.Session is Session
        assert repro.VerifyOptions is VerifyOptions
        assert repro.load_zone is load_zone


class TestSessionVerify:
    def test_equals_verify_engine(self):
        """The facade contract: Session.verify returns what verify_engine
        returns for the same options."""
        zone = corpus.minimal_zone()
        direct = verify_engine(zone, "verified")
        via = Session().verify(zone, "verified")
        assert via.verdict == direct.verdict
        assert via.verified == direct.verified
        assert via.solver_checks == direct.solver_checks
        assert len(via.bugs) == len(direct.bugs)
        assert [l.name for l in via.layers] == [l.name for l in direct.layers]

    def test_builtin_name_and_override(self):
        result = Session().verify("minimal", "verified", fuel=10)
        assert result.verdict == "UNKNOWN"  # the override took effect

    def test_session_cache_reused_across_verifies(self):
        session = Session()
        first = session.verify("minimal")
        again = session.verify("minimal")
        assert first.verdict == again.verdict == "VERIFIED"
        # Second run replays the refinement verdict from the session cache.
        assert any(l.route == "cache" for l in again.layers)
        assert again.solver_checks < first.solver_checks


class TestSessionCampaign:
    def test_single_version_report(self):
        report = Session().campaign(2, "verified", seed=11, **TINY)
        assert report.zones_run == 2
        assert report.zones_verified == 2

    def test_matches_module_level_campaign(self):
        from repro.core import run_campaign

        direct = run_campaign("verified", num_zones=2, seed=11, **TINY)
        via = Session().campaign(2, "verified", seed=11, **TINY)
        assert via.canonical_json() == direct.canonical_json()

    def test_multiple_versions_dict(self):
        reports = Session().campaign(1, ["verified", "v1.0"], seed=11, **TINY)
        assert set(reports) == {"verified", "v1.0"}
        assert reports["verified"].zones_verified == 1
        assert reports["v1.0"].zones_refuted == 1

    def test_workers_flow_through(self):
        report = Session(workers=2).campaign(2, "verified", seed=11, **TINY)
        assert report.perf is not None
        assert report.perf["workers"] == 2

    def test_disk_cache_handle_caches_campaigns(self, tmp_path):
        from repro.incremental import SummaryCache

        cache_dir = str(tmp_path / "cache")
        first = Session(cache=SummaryCache(cache_dir=cache_dir)).campaign(
            1, "verified", seed=11, **TINY)
        assert first.perf["cache_misses"] > 0
        session = Session(cache=SummaryCache(cache_dir=cache_dir))
        assert session.options.cache_dir == cache_dir
        second = session.campaign(1, "verified", seed=11, **TINY)
        assert second.perf["cache_hits"] > 0
        assert second.perf["cache_misses"] == 0


class TestSessionWatch:
    def test_daemon_inherits_session_state(self, tmp_path):
        from repro.dns.zonefile import zone_to_text

        path = tmp_path / "w.zone"
        path.write_text(zone_to_text(corpus.minimal_zone()))
        session = Session(workers=2, budget=60.0)
        daemon = session.watch(str(path), log=lambda line: None)
        assert daemon.cache is session.cache
        assert daemon.options.workers == 2
        assert daemon.options.budget_seconds == 60.0
        event = daemon.poll_once()
        assert event is not None
        assert event.outcome.result.verdict == "VERIFIED"
