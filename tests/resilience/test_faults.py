"""Fault plans: determinism, site semantics, and the all-sites drill."""

import pickle

import pytest

from repro.resilience import FaultPlan, InjectedFault, faults, verdicts


class TestScriptedPlans:
    def test_fires_exactly_n_times(self):
        plan = FaultPlan.scripted({faults.SITE_CACHE_READ: 2})
        with faults.active(plan):
            results = [faults.should_fire(faults.SITE_CACHE_READ) for _ in range(5)]
        assert results == [True, True, False, False, False]
        assert plan.fired[faults.SITE_CACHE_READ] == 2
        assert plan.consults[faults.SITE_CACHE_READ] == 5

    def test_bool_sequence_script(self):
        plan = FaultPlan.scripted({faults.SITE_SOLVER: [False, True, False]})
        with faults.active(plan):
            results = [faults.should_fire(faults.SITE_SOLVER) for _ in range(4)]
        assert results == [False, True, False, False]

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.scripted({"no.such.site": 1})

    def test_sites_are_independent(self):
        plan = FaultPlan.scripted({faults.SITE_CACHE_READ: 1})
        with faults.active(plan):
            assert faults.should_fire(faults.SITE_CACHE_WRITE) is False
            assert faults.should_fire(faults.SITE_CACHE_READ) is True


class TestSeededPlans:
    def test_same_seed_same_schedule(self):
        def schedule(seed):
            plan = FaultPlan.seeded(seed, rate=0.5)
            with faults.active(plan):
                return [
                    faults.should_fire(faults.SITE_SOLVER) for _ in range(64)
                ]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)  # astronomically unlikely to tie

    def test_sites_filter(self):
        plan = FaultPlan.seeded(1, rate=1.0, sites=[faults.SITE_SOLVER])
        with faults.active(plan):
            assert faults.should_fire(faults.SITE_SOLVER) is True
            assert faults.should_fire(faults.SITE_CACHE_READ) is False


class TestRaisingSemantics:
    def test_io_sites_raise_real_oserror(self):
        plan = FaultPlan.scripted({faults.SITE_CACHE_READ: 1})
        with faults.active(plan):
            with pytest.raises(OSError):
                faults.maybe_raise(faults.SITE_CACHE_READ)

    def test_compile_site_raises_tagged_fault(self):
        plan = FaultPlan.scripted({faults.SITE_COMPILE: 1})
        with faults.active(plan):
            with pytest.raises(InjectedFault) as excinfo:
                faults.maybe_raise(faults.SITE_COMPILE)
        assert excinfo.value.taxonomy == verdicts.ERR_COMPILE
        assert verdicts.classify_error(excinfo.value)[0] == verdicts.ERR_COMPILE

    def test_injected_fault_survives_pickling(self):
        # A pool worker's exception reaches the parent pickled; an
        # unpicklable one breaks the pool instead of propagating.
        fault = InjectedFault(faults.SITE_COMPILE, verdicts.ERR_COMPILE)
        copy = pickle.loads(pickle.dumps(fault))
        assert type(copy) is InjectedFault
        assert (copy.site, copy.taxonomy, str(copy)) == (
            fault.site, fault.taxonomy, str(fault))

    def test_no_plan_is_a_noop(self):
        faults.clear()
        assert faults.should_fire(faults.SITE_SOLVER) is False
        faults.maybe_raise(faults.SITE_COMPILE)  # must not raise

    def test_active_restores_previous_plan(self):
        outer = FaultPlan.scripted({faults.SITE_SOLVER: 1})
        inner = FaultPlan.scripted({})
        faults.install(outer)
        try:
            with faults.active(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        finally:
            faults.clear()


class TestCampaignContinues:
    def test_one_broken_unit_does_not_abort_the_run(self):
        from repro.core import run_campaign

        plan = FaultPlan.scripted({faults.SITE_COMPILE: 1})
        with faults.active(plan):
            report = run_campaign("verified", num_zones=2, seed=11)
        assert report.zones_run == 2
        first, second = report.verdicts
        assert first.verdict == verdicts.ERROR
        assert first.error_class == verdicts.ERR_COMPILE
        assert first.error_detail
        assert second.verdict == verdicts.VERIFIED
        assert report.zones_errored == 1
        assert "ERROR (compile)" in report.describe()


class TestFaultDrill:
    def test_every_site_degrades_to_a_typed_verdict(self):
        from repro.testing.faultdrill import fault_drill

        report = fault_drill("verified")
        assert report.clean, report.describe()
        sites = {outcome.site for outcome in report.outcomes}
        assert sites == set(faults.KNOWN_SITES)
        for outcome in report.outcomes:
            assert outcome.fired > 0
        by_site = {o.site: o for o in report.outcomes}
        assert by_site[faults.SITE_COMPILE].verdict == "ERROR(compile)"
        assert by_site[faults.SITE_SOLVER].verdict == "UNKNOWN(solver-unknown)"
        assert by_site[faults.SITE_CACHE_CORRUPT].verdict == verdicts.VERIFIED
