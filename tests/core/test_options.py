"""VerifyOptions: the frozen options carrier, the only way to configure
``verify_engine``."""

import dataclasses

import pytest

from repro.core.options import VerifyOptions
from repro.core import pipeline
from repro.zonegen import corpus


class TestVerifyOptions:
    def test_frozen(self):
        options = VerifyOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.workers = 4

    def test_with_returns_new_instance(self):
        base = VerifyOptions()
        derived = base.with_(workers=2, budget_seconds=5.0)
        assert base.workers is None
        assert derived.workers == 2
        assert derived.budget_seconds == 5.0

    def test_json_round_trip(self):
        options = VerifyOptions(depth=7, workers=3, budget_seconds=1.5,
                                fuel=99, cache_dir="/tmp/c", faults="seed:1",
                                use_summaries=False, smoke_first=False)
        assert VerifyOptions.from_json(options.to_json()) == options

    def test_from_json_ignores_unknown_keys(self):
        options = VerifyOptions.from_json({"workers": 2, "future_knob": True})
        assert options == VerifyOptions(workers=2)

    def test_make_budget(self):
        assert VerifyOptions().make_budget() is None
        budget = VerifyOptions(budget_seconds=2.0, fuel=50).make_budget()
        assert budget.wall_seconds == 2.0
        assert budget.initial_fuel == 50

    def test_make_cache(self, tmp_path):
        assert VerifyOptions().make_cache() is None
        cache = VerifyOptions(cache_dir=str(tmp_path)).make_cache()
        assert cache.memory_only is False

    def test_from_args_partial_namespace(self):
        import argparse

        args = argparse.Namespace(workers=4, budget_seconds=None)
        options = VerifyOptions.from_args(args)
        assert options.workers == 4
        assert options.budget_seconds is None
        assert options.cache_dir is None


class TestLegacyKwargsShim:
    """The pre-``VerifyOptions`` kwargs bag is gone: knobs passed as
    keywords are a plain TypeError."""

    def test_unknown_kwarg_is_type_error(self):
        with pytest.raises(TypeError, match="workers"):
            pipeline.verify_engine(corpus.minimal_zone(), "verified", workers=2)
