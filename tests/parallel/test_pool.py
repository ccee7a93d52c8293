"""The pool primitive: completion-order yields, worker death, stalls."""

import multiprocessing
import os
import time

from repro.parallel.pool import DIED, OK, TIMEOUT, run_units


def square(payload):
    return {"value": payload["x"] * payload["x"]}


def die_on_three(payload):
    if payload["x"] == 3:
        os._exit(13)  # simulated OOM-kill: no exception, no cleanup
    return {"value": payload["x"]}


def sleep_forever(payload):
    if payload["x"] == 0:
        return {"value": 0}
    time.sleep(600)


def raise_value_error(payload):
    raise ValueError(f"unit {payload['x']}")


def raise_on_zero_else_sleep(payload):
    if payload["x"] == 0:
        raise ValueError("unit 0")
    time.sleep(2)
    return {"value": payload["x"]}


def live_children():
    return {child.pid for child in multiprocessing.active_children()}


PAYLOADS = [{"x": x} for x in range(5)]


class TestInProcess:
    def test_workers_one_runs_inline(self):
        results = list(run_units(square, PAYLOADS, workers=1))
        assert results == [
            (i, OK, {"value": i * i}) for i in range(5)
        ]

    def test_single_payload_runs_inline_even_with_many_workers(self):
        results = list(run_units(square, [{"x": 7}], workers=8))
        assert results == [(0, OK, {"value": 49})]

    def test_worker_exception_propagates(self):
        try:
            list(run_units(raise_value_error, [{"x": 0}], workers=1))
        except ValueError as exc:
            assert "unit 0" in str(exc)
        else:
            raise AssertionError("worker exception swallowed")


class TestPooled:
    def test_all_units_complete(self):
        results = list(run_units(square, PAYLOADS, workers=2))
        assert sorted(index for index, _, _ in results) == list(range(5))
        assert all(status == OK for _, status, _ in results)
        by_index = {index: value for index, _, value in results}
        assert by_index == {i: {"value": i * i} for i in range(5)}

    def test_worker_exception_propagates(self):
        try:
            list(run_units(raise_value_error, PAYLOADS[:2], workers=2))
        except ValueError:
            pass
        else:
            raise AssertionError("worker exception swallowed")

    def test_worker_death_yields_died_not_hang(self):
        results = list(run_units(die_on_three, PAYLOADS, workers=2))
        statuses = {index: status for index, status, _ in results}
        # Every unit is accounted for — no unit silently vanishes.
        assert sorted(statuses) == list(range(5))
        assert statuses[3] == DIED
        # A broken pool surrenders the in-flight remainder as DIED too;
        # units that finished before the death report OK.
        assert all(status in (OK, DIED) for status in statuses.values())
        oks = [value for _, status, value in results if status == OK]
        assert all(value is not None for value in oks)

    def test_stall_yields_timeout(self):
        started = time.monotonic()
        results = list(
            run_units(sleep_forever, [{"x": 0}, {"x": 1}], workers=2,
                      grace_seconds=1.0)
        )
        assert time.monotonic() - started < 30
        statuses = {index: status for index, status, _ in results}
        assert statuses[0] == OK
        assert statuses[1] == TIMEOUT

    def test_worker_exception_stops_the_pool_at_once(self):
        """A raising unit must not wait for the queued units to run (five
        two-second sleepers on two workers would take ~6 s), and no pool
        worker may outlive the call."""
        before = live_children()
        payloads = [{"x": x} for x in range(6)]
        started = time.monotonic()
        try:
            list(run_units(raise_on_zero_else_sleep, payloads, workers=2))
        except ValueError as exc:
            assert "unit 0" in str(exc)
        else:
            raise AssertionError("worker exception swallowed")
        assert time.monotonic() - started < 1.5
        assert live_children() - before == set()
