"""The campaign service loop: bounded runs, status, resume, supervision."""

import json
import threading
import time

from repro.campaign import (
    EV_BREAKER,
    EV_REGRESSION,
    EV_REQUEUED,
    EV_START,
    EV_STOP,
    SERVICE_FILE,
    CampaignService,
    CampaignServiceConfig,
    conservation,
    last_event,
    query_status,
    read_events,
    read_ledger,
)
from repro.core.options import VerifyOptions

OPTIONS = VerifyOptions(budget_seconds=30.0)


def service_for(tmp_path, **config_kwargs):
    config_kwargs.setdefault("seed", 7)
    config_kwargs.setdefault("versions", ("verified", "v2.0"))
    config_kwargs.setdefault("batch_tasks", 1)
    config = CampaignServiceConfig(corpus_dir=str(tmp_path / "corpus"),
                                   **config_kwargs)
    return CampaignService(config, options=OPTIONS)


class TestLedger:
    def test_torn_final_row_skipped(self, tmp_path):
        # SIGKILL mid-append leaves half a row; the reader must skip it
        # rather than raise, like every other JSONL reader.
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"header":{"format":1}}\n'
                        '{"uid":0,"verdict":"VERIFIED"}\n'
                        '{"uid":1,"verd')
        assert read_ledger(path) == [{"uid": 0, "verdict": "VERIFIED"}]


class TestBoundedRun:
    def test_units_bounded_run(self, tmp_path):
        service = service_for(tmp_path, units=2)
        report = service.run()
        assert report.exit_code == 0
        assert report.reason == "units"
        assert report.units_completed == 2
        assert sum(report.verdict_mix.values()) == 2
        # v2.0 is seeded with Table-2 bugs: the differential refutes the
        # generated zone, the finding lands in the regression store.
        assert report.verdict_mix.get("BUG", 0) >= 1
        assert report.regressions["captured"] >= 1

        events = read_events(service.events_path)
        assert last_event(events, EV_START) is not None
        assert last_event(events, EV_STOP) is not None
        assert last_event(events, EV_REGRESSION) is not None
        totals = conservation(events)
        assert totals["scheduled"] == 2
        assert totals["in_flight"] == 0
        assert totals["min_in_flight"] == 0

        rows = read_ledger(service.ledger_path)
        assert [row["uid"] for row in rows] == [0, 1]
        assert all("elapsed" not in row for row in rows)  # timing-free

        registry = json.loads(
            (service.corpus_dir / SERVICE_FILE).read_text())
        assert registry["state"] == "stopped"
        assert registry["report"]["reason"] == "units"

    def test_status_channel_and_graceful_drain(self, tmp_path):
        service = service_for(tmp_path, versions=("verified",))
        result = {}

        def runner():
            result["report"] = service.run()

        thread = threading.Thread(target=runner)
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while service.status_port is None:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            live = query_status("127.0.0.1", service.status_port)
            assert live["service"]["state"] == "running"
            assert live["service"]["seed"] == 7
            assert "verdict_mix" in live and "checkpoint" in live
        finally:
            service.request_stop()
            thread.join(timeout=120)
        assert not thread.is_alive()
        report = result["report"]
        assert report.reason == "drained"
        assert report.exit_code == 0
        totals = conservation(read_events(service.events_path))
        assert totals["in_flight"] == 0


class TestResume:
    def test_truncated_checkpoint_resumes_bit_identical(self, tmp_path):
        """Simulated crash: keep only the first checkpointed unit, resume,
        and demand the exact bytes of the uninterrupted run's ledger."""
        service = service_for(tmp_path, units=2)
        service.run()
        ledger_full = service.ledger_path.read_bytes()
        checkpoint = service.checkpoint_path
        lines = checkpoint.read_text().splitlines()
        assert len(lines) == 3  # header + 2 units
        checkpoint.write_text(
            "\n".join(lines[:2]) + '\n{"unit": {"torn\n')

        resumed = service_for(tmp_path, units=2, resume=True)
        report = resumed.run()
        assert report.units_replayed == 1
        assert report.units_completed == 2
        assert resumed.ledger_path.read_bytes() == ledger_full

    def test_full_checkpoint_replays_without_engine_work(self, tmp_path):
        service = service_for(tmp_path, units=2)
        service.run()
        ledger_full = service.ledger_path.read_bytes()
        resumed = service_for(tmp_path, units=2, resume=True)
        started = time.monotonic()
        report = resumed.run()
        assert time.monotonic() - started < 10  # replay, not recompute
        assert report.units_replayed == 2
        assert resumed.ledger_path.read_bytes() == ledger_full


class TestSupervision:
    def test_breaker_opens_on_persistent_failure(self, tmp_path):
        service = service_for(tmp_path, max_failures=2)
        service._sleep = lambda _s: None
        def boom():
            raise RuntimeError("scheduler wedged")
        service._next_batch = boom
        report = service.run()
        assert report.exit_code == 2
        assert report.reason == "breaker"
        assert report.breaker == "open"
        events = read_events(service.events_path)
        breaker_events = [e for e in events if e["kind"] == EV_BREAKER]
        assert len(breaker_events) == 2
        assert "scheduler wedged" in breaker_events[-1]["error"]

    def test_abandoned_batch_keeps_stream_conserved(self, tmp_path):
        """A batch that dies mid-flight closes its open attempts as
        ``requeued`` — the conservation invariant survives the failure."""
        service = service_for(tmp_path, max_failures=1, units=2)
        service._sleep = lambda _s: None
        original_schedule = service._schedule_attempt

        def exploding_batch(units, writer, completed):
            for unit in units:
                original_schedule(unit)
            raise RuntimeError("executor wedged")

        service._run_batch = exploding_batch
        report = service.run()
        assert report.exit_code == 2
        assert report.units_requeued == 2
        events = read_events(service.events_path)
        requeued = [e for e in events if e["kind"] == EV_REQUEUED]
        assert {e["cause"] for e in requeued} == {"batch-failure"}
        totals = conservation(events)
        assert totals["in_flight"] == 0
        assert totals["min_in_flight"] == 0
