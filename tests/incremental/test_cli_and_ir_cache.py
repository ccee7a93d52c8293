"""CLI ``--json``/``--cache``/``watch`` plumbing and the IR-cache
staleness regression (the paper's edit-and-reverify porting workflow)."""

import json
import textwrap
import types

import pytest

from repro import cli
from repro.core.pipeline import _IR_CACHE, _compiled, clear_ir_cache

ZONE_TEXT = """\
$ORIGIN shop.example.
@ IN SOA ns1.shop.example. hostmaster.shop.example. 7 3600 600 86400 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
"""


@pytest.fixture()
def zone_file(tmp_path):
    path = tmp_path / "zone.db"
    path.write_text(ZONE_TEXT)
    return path


class TestVerifyJson:
    def test_json_output_contract(self, zone_file, capsys):
        rc = cli.main(["verify", "--zone", str(zone_file), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["zone_origin"] == "shop.example."
        assert payload["bugs"] == []
        assert {layer["name"] for layer in payload["layers"]} >= {"Resolve"}
        assert payload["solver_checks"] > 0
        phases = payload["phase_seconds"]
        assert set(phases) == {
            "compile", "analysis", "summarize", "resolve", "solve"
        }
        assert phases["compile"] + phases["analysis"] \
            + phases["summarize"] + phases["resolve"] \
            <= payload["elapsed_seconds"]

    def test_json_reports_bugs_and_cache_stats(self, zone_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        rc = cli.main([
            "verify", "--zone", str(zone_file), "--version", "v1.0",
            "--json", "--cache", str(cache_dir),
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is False
        assert payload["bugs"] and payload["bug_categories"]
        assert payload["cache"]["puts"] > 0
        # Second run replays from the populated cache.
        rc = cli.main([
            "verify", "--zone", str(zone_file), "--version", "v1.0",
            "--json", "--cache", str(cache_dir),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["solver_checks"] == 0
        assert payload["cache"]["hits"] > 0
        assert payload["phase_seconds"]["compile"] == 0.0
        assert payload["phase_seconds"]["analysis"] == 0.0

    def test_watch_cli_max_updates(self, zone_file, capsys):
        rc = cli.main([
            "watch", "--zone", str(zone_file), "--interval", "0.01",
            "--max-updates", "1",
        ])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        payload = json.loads(line)
        assert payload["reason"] == "initial"
        assert payload["verified"] is True


class TestIrCacheFreshness:
    """Editing a module's source must not serve stale IR (satellite fix:
    the cache is keyed by source digest, not module name alone)."""

    def _write_module(self, tmp_path, body):
        path = tmp_path / "porting_mod.py"
        path.write_text(textwrap.dedent(body))
        module = types.ModuleType("porting_mod")
        module.__file__ = str(path)
        with open(path) as handle:
            exec(compile(handle.read(), str(path), "exec"), module.__dict__)
        return module

    def test_recompiles_after_source_edit(self, tmp_path):
        module = self._write_module(
            tmp_path,
            """
            def answer(x: int) -> int:
                return x + 1
            """,
        )
        first = _compiled(module)
        assert _compiled(module) is first  # unchanged source: cached

        (tmp_path / "porting_mod.py").write_text(
            textwrap.dedent(
                """
                def answer(x: int) -> int:
                    return x + 2
                """
            )
        )
        second = _compiled(module)
        assert second is not first  # digest changed: fresh IR

    def test_clear_ir_cache(self, tmp_path):
        module = self._write_module(
            tmp_path,
            """
            def answer(x: int) -> int:
                return x * 2
            """,
        )
        first = _compiled(module)
        clear_ir_cache()
        assert not _IR_CACHE
        assert _compiled(module) is not first

    def test_engine_modules_still_cached_by_content(self):
        from repro.core.pipeline import compile_engine_modules

        a = compile_engine_modules("verified")
        b = compile_engine_modules("verified")
        assert [m.name for m in a] == [m.name for m in b]
        assert all(x is y for x, y in zip(a, b))  # same sources: same IR
