"""The analysis oracle: pinned output of the panic-guard pass, and
fixpoint reuse between the summary and pruning passes.

``ANALYSIS_PIN`` records, for every engine version and every module it
compiles with analysis on, the prune report's guard counts, the module's
summary digest and a digest of every ``ElidedGuardBr`` site the pass
wrote. The values were recorded before the pruning pass learned to reuse
the summary pass's fixpoints and before the row-indexed difference-bound
matrix, so they pin both changes to bit-identical output. The summary
digest is recorded as a 16-hex prefix.
"""

import hashlib

import pytest

import repro.analysis.prune as prune_mod
from repro.analysis import prune_module
from repro.analysis.interproc import compute_summaries
from repro.core.pipeline import clear_ir_cache, compile_engine_modules
from repro.engine.control import ENGINE_VERSIONS
from repro.engine.gopy import nameops, nodestack
from repro.frontend import compile_module
from repro.ir import ElidedGuardBr

#: The modules every version shares (``toplevel`` is compiled per version
#: but against the same externs, so it prunes identically):
#: module -> (guards_total, guards_pruned, panic_blocks_removed, summary
#: digest prefix, elided-site digest prefix).
SHARED_PIN = {
    "nameops": (21, 12, 12, "e159187d7b7797ec", "ec39ee89b2edaaeb"),
    "nodestack": (10, 3, 3, "828f1228f3e7c62c", "0ec28467ef2c0a99"),
    "respops": (4, 0, 0, "9639e65d6988f7b1", "e3b0c44298fc1c14"),
    "toplevel": (108, 15, 15, "ede11ab2221af02c", "b1b814e02a66d2e5"),
}

#: version -> module -> pin, as above.
ANALYSIS_PIN = {
    version: {**SHARED_PIN, module: pin}
    for version, module, pin in (
        ("dev", "dev",
         (218, 56, 55, "041cc97f9e60b84d", "8d592ecf24acf04f")),
        ("v1.0", "v1_0",
         (216, 52, 51, "041cc97f9e60b84d", "f301744e519b4f55")),
        ("v2.0", "v2_0",
         (210, 53, 52, "041cc97f9e60b84d", "35046e13efab4c39")),
        ("v3.0", "v3_0",
         (216, 54, 53, "041cc97f9e60b84d", "f37a583904630be6")),
        ("v4.0", "v4_0",
         (222, 54, 53, "9c8960f2ea55d160", "c6fb5e9d196e4fd7")),
        ("verified", "verified",
         (180, 37, 36, "041cc97f9e60b84d", "ffd61740660c2c19")),
    )
}


def elided_sites_digest(module) -> str:
    """A digest of every ``ElidedGuardBr``: where it sits, where it goes,
    the condition it keeps and the panic it stands for."""
    h = hashlib.sha256()
    for function in module.functions.values():
        for label, block in function.blocks.items():
            term = block.terminator
            if isinstance(term, ElidedGuardBr):
                h.update(repr((
                    function.name, label, term.target, repr(term.cond),
                    term.panic_on_true, term.kind, term.message, term.site,
                )).encode())
    return h.hexdigest()[:16]


def module_pin(module):
    report = module.prune_report
    return (
        report.guards_total,
        report.guards_pruned,
        report.panic_blocks_removed,
        module.summary_digest[:16],
        elided_sites_digest(module),
    )


def ir_text(module) -> str:
    """Every instruction and terminator of ``module``, in order."""
    lines = []
    for function in module.functions.values():
        lines.append(f"fn {function.name}")
        for label, block in function.blocks.items():
            lines.append(f"{label}:")
            lines.extend(repr(insn) for insn in block.instructions)
            lines.append(repr(block.terminator))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def analysed():
    clear_ir_cache()  # measure a real compile, not an earlier test's
    return {
        version: compile_engine_modules(version, analysis=True)
        for version in sorted(ENGINE_VERSIONS)
    }


@pytest.mark.parametrize("version", sorted(ENGINE_VERSIONS))
def test_analysis_output_is_pinned(analysed, version):
    got = {module.name: module_pin(module) for module in analysed[version]}
    assert got == ANALYSIS_PIN[version]


class CountingAnalyze:
    """Stands in for :func:`repro.analysis.dataflow.analyze` inside the
    pruning pass and counts the fixpoints it had to compute."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.real(*args, **kwargs)


@pytest.fixture
def counting_analyze(monkeypatch):
    counter = CountingAnalyze(prune_mod.analyze)
    monkeypatch.setattr(prune_mod, "analyze", counter)
    return counter


def _fresh_and_summarized(source, **kwargs):
    module = compile_module(source)
    return module, compute_summaries([module], **kwargs)


class TestFixpointReuse:
    @pytest.mark.parametrize("source", [nameops, nodestack])
    def test_reused_fixpoint_prunes_identically(self, source,
                                                counting_analyze):
        reused_mod, reused_table = _fresh_and_summarized(source)
        slow_mod, slow_table = _fresh_and_summarized(source)
        reused = prune_module(reused_mod, summaries=reused_table)
        reused_calls = counting_analyze.calls
        # A plain copy of the table is another table object: no reuse.
        slow = prune_module(slow_mod, summaries=dict(slow_table))
        slow_calls = counting_analyze.calls - reused_calls
        assert reused.to_dict() == slow.to_dict()
        assert [f.to_dict() for f in reused.functions] == \
            [f.to_dict() for f in slow.functions]
        assert ir_text(reused_mod) == ir_text(slow_mod)
        assert reused.guards_pruned > 0
        assert slow_calls > 0
        assert reused_calls < slow_calls

    def test_other_summary_table_is_not_reused(self, counting_analyze):
        module, table = _fresh_and_summarized(nameops)
        _, other = _fresh_and_summarized(nameops)
        prune_module(module, summaries=other)
        slow_calls = counting_analyze.calls
        assert slow_calls > 0
        # ``other`` holds fixpoints, but of another compile's functions.
        again, again_table = _fresh_and_summarized(nameops)
        prune_module(again, summaries=again_table)
        assert counting_analyze.calls - slow_calls < slow_calls

    @pytest.mark.parametrize("setting", [
        {"widen_after": 4}, {"max_visits": 499},
    ])
    def test_other_widening_setting_is_not_reused(self, setting,
                                                  counting_analyze):
        module, table = _fresh_and_summarized(nameops)
        baseline, base_table = _fresh_and_summarized(nameops)
        prune_module(baseline, summaries=dict(base_table), **setting)
        slow_calls = counting_analyze.calls
        prune_module(module, summaries=table, **setting)
        assert counting_analyze.calls - slow_calls == slow_calls

    def test_a_fixpoint_is_used_at_most_once(self, counting_analyze):
        # Pruning rewrites the functions, so a second pass over the same
        # module must analyse the rewritten IR, not replay stale fixpoints.
        module, table = _fresh_and_summarized(nameops)
        prune_module(module, summaries=table)
        before = counting_analyze.calls
        again = prune_module(module, summaries=table)
        replay_calls = counting_analyze.calls - before
        twin, twin_table = _fresh_and_summarized(nameops)
        prune_module(twin, summaries=dict(twin_table))
        before = counting_analyze.calls
        twin_again = prune_module(twin, summaries=dict(twin_table))
        assert replay_calls == counting_analyze.calls - before
        assert again.to_dict() == twin_again.to_dict()
        assert ir_text(module) == ir_text(twin)
