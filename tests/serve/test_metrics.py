"""ServerMetrics' qps window: a fixed ring of per-tick counters."""

from collections import deque

from repro.serve.metrics import QPS_WINDOW_SECONDS, ServerMetrics


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def container_sizes(metrics):
    return {name: len(value) for name, value in vars(metrics).items()
            if isinstance(value, (list, deque, dict))}


class TestQpsWindow:
    def test_qps_is_count_over_window_inside_the_window(self):
        clock = FakeClock()
        metrics = ServerMetrics(clock=clock)
        for _ in range(250):
            metrics.count_query("udp")
        assert metrics.qps() == 250 / QPS_WINDOW_SECONDS
        clock.now += QPS_WINDOW_SECONDS - 0.15  # still inside
        assert metrics.qps() == 250 / QPS_WINDOW_SECONDS

    def test_count_decays_to_zero_once_the_window_has_passed(self):
        clock = FakeClock()
        metrics = ServerMetrics(clock=clock)
        for _ in range(10):
            metrics.count_query("udp")
        clock.now += 2.0
        for _ in range(20):
            metrics.count_query("tcp")
        clock.now += QPS_WINDOW_SECONDS - 2.0 + 0.05  # first burst expired
        assert metrics.qps() == 20 / QPS_WINDOW_SECONDS
        clock.now += 2.0  # second burst expired too
        assert metrics.qps() == 0.0
        assert metrics.as_dict()["qps"] == 0.0
        assert metrics.queries == 30  # lifetime counters are untouched

    def test_a_reused_slot_forgets_its_old_tick(self):
        # Exactly one window later a query lands in the same ring slot:
        # it must restart the slot's count, not add to the stale one.
        clock = FakeClock()
        metrics = ServerMetrics(clock=clock)
        for _ in range(7):
            metrics.count_query("udp")
        clock.now += QPS_WINDOW_SECONDS
        metrics.count_query("udp")
        assert metrics.qps() == 1 / QPS_WINDOW_SECONDS

    def test_storage_stays_the_same_size_under_load(self):
        clock = FakeClock()
        metrics = ServerMetrics(clock=clock)
        before = container_sizes(metrics)
        for _ in range(100_000):
            metrics.count_query("udp")
            clock.now += 1e-4  # 10k qps for 10 s: two windows' worth
        assert container_sizes(metrics) == before
        # The last window holds the last 5 s of queries, to a tick.
        assert abs(metrics.qps() - 10_000) <= 10_000 * 0.1 / QPS_WINDOW_SECONDS
