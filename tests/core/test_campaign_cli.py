"""Tests for verification campaigns and the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro.core
from repro.cli import main as cli_main
from repro.core import CampaignReport, VerifyOptions, run_campaign
from repro.zonegen import GeneratorConfig, ZoneGenerator, minimal_zone

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestCampaign:
    def test_verified_clean_campaign(self):
        report = run_campaign(
            "verified", num_zones=2, seed=101,
            num_hosts=3, num_wildcards=1, num_delegations=0, num_cnames=1,
            num_mx=0,
        )
        assert report.zones_run == 2
        assert report.zones_verified == 2
        assert report.zones_refuted == 0
        assert "campaign verified" in report.describe()

    def test_buggy_version_refuted(self):
        report = run_campaign(
            "v3.0", num_zones=2, seed=101,
            num_hosts=3, num_wildcards=1, num_delegations=0, num_cnames=1,
            num_mx=0,
        )
        # v3.0's ENT bug triggers whenever the zone has an empty
        # non-terminal; at least the wildcard-bearing zones should refute.
        assert report.zones_refuted >= 1
        histogram = report.category_histogram()
        assert histogram

    def test_explicit_zone_list(self):
        report = run_campaign("verified", zones=[minimal_zone()])
        assert report.zones_run == 1 and report.zones_verified == 1
        assert report.perf["guards_pruned"] > 0
        # The analysis ablation reaches the unit's session.
        ablated = run_campaign("verified", zones=[minimal_zone()],
                               options=VerifyOptions(analysis=False))
        assert ablated.zones_verified == 1
        assert ablated.perf["guards_pruned"] == 0

    def test_generator_settings_with_explicit_zones_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            run_campaign("verified", zones=[minimal_zone()], workers=2)

    def test_smoke_cross_check_consistency(self):
        # smoke_first (the VerifyOptions default) raises if the
        # differential refutes a zone the prover accepts; running it at
        # all is the assertion.
        report = run_campaign("v1.0", zones=[minimal_zone()])
        assert report.zones_run == 1


class TestCLI:
    def test_verify_command(self, capsys):
        code = cli_main(["verify", "--zone", "minimal"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VERIFIED" in out

    def test_verify_buggy_exit_code(self, capsys):
        code = cli_main(["verify", "--zone", "evaluation", "--version", "v3.0"])
        assert code == 1
        assert "bug" in capsys.readouterr().out

    def test_differential_command(self, capsys):
        code = cli_main(["differential", "--zone", "minimal"])
        assert code == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_summarize_command(self, capsys):
        code = cli_main(
            ["summarize", "--zone", "minimal", "--layer", "tree_search"]
        )
        assert code == 0
        assert "summary_spec tree_search" in capsys.readouterr().out

    def test_zonegen_command(self, capsys):
        code = cli_main(["zonegen", "--count", "2", "--seed", "9"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("$ORIGIN") == 2
        assert "SOA" in out

    def test_zone_file_loading(self, tmp_path, capsys):
        from repro.dns.zonefile import zone_to_text

        path = tmp_path / "test.zone"
        path.write_text(zone_to_text(minimal_zone()))
        code = cli_main(["differential", "--zone", str(path)])
        assert code == 0

    def test_tables_single(self, capsys):
        code = cli_main(["tables", "table3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "implementation" in out

    def test_campaign_forwards_runtime_flags(self, monkeypatch, capsys):
        seen = {}

        def fake_campaign(version, **kwargs):
            seen.update(kwargs)
            return CampaignReport(version)

        monkeypatch.setattr(repro.core, "run_campaign", fake_campaign)
        code = cli_main(["campaign", "--zones", "1", "--no-analysis",
                         "--analysis-check", "--fuel", "900",
                         "--faults", "seed:7:0.05"])
        assert code == 0
        assert seen["options"] == VerifyOptions(
            analysis=False, analysis_check=True, fuel=900,
            faults="seed:7:0.05")

    def test_campaign_cache_reports_its_own_hits(self, tmp_path, capsys):
        """The printed cache line is the campaign's own hit count: a
        second run over the same directory replays its unit."""
        argv = ["campaign", "--zones", "1", "--cache", str(tmp_path)]
        assert cli_main(argv) == 0
        assert "(hits=0, misses=1)" in capsys.readouterr().out
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "(hits=1, misses=0)" in out
        assert ", 0 checks)" in out

    def test_unknown_version_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["verify", "--version", "v9.9"])

    def test_verify_does_not_import_the_serving_stack(self):
        """A verify run in a fresh interpreter loads neither asyncio nor
        ssl, nor the chaos and fault drills that drive the serving plane."""
        script = (
            "import contextlib, io, json, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify', '--zone', 'minimal', '--json'])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True, text=True).stdout
        code, modules = json.loads(out)
        assert code == 0
        unwanted = {"asyncio", "ssl", "repro.testing.chaosdrill",
                    "repro.testing.faultdrill"}
        assert unwanted.isdisjoint(modules)
