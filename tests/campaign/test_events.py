"""The campaign's JSONL event stream: append-only, torn-tolerant, conserved."""

import json

from repro.campaign import (
    EV_COMPLETED,
    EV_REQUEUED,
    EV_SCHEDULED,
    EV_START,
    EventLog,
    conservation,
    last_event,
    read_events,
)


class TestEventLog:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, clock=lambda: 1.0)
        log.emit(EV_START, seed=7)
        log.emit(EV_SCHEDULED, uid=0, unit_kind="generated")
        events = read_events(path)
        assert [e["kind"] for e in events] == [EV_START, EV_SCHEDULED]
        assert events[0]["seed"] == 7
        assert events[1]["uid"] == 0
        assert log.emitted == 2

    def test_append_only_across_instances(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = EventLog(path, clock=lambda: 1.0)
        first.emit(EV_START)
        second = EventLog(path, clock=lambda: 2.0)
        second.emit(EV_START)
        assert len(read_events(path)) == 2

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, clock=lambda: 1.0)
        log.emit(EV_SCHEDULED, uid=0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "comple')  # SIGKILL mid-write
        events = read_events(path)
        assert len(events) == 1
        assert events[0]["kind"] == EV_SCHEDULED
        # The restarted service's first event must not be glued onto the
        # torn tail (and lost with it).
        restarted = EventLog(path, clock=lambda: 2.0)
        restarted.emit(EV_START)
        restarted.emit(EV_SCHEDULED, uid=1)
        kinds = [e["kind"] for e in read_events(path)]
        assert kinds == [EV_SCHEDULED, EV_START, EV_SCHEDULED]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_events(tmp_path / "absent.jsonl") == []

    def test_each_line_is_standalone_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, clock=lambda: 1.0)
        log.emit(EV_START, nested={"a": [1, 2]})
        for line in path.read_text().splitlines():
            json.loads(line)


class TestConservation:
    def test_balanced_stream(self):
        events = [
            {"kind": EV_SCHEDULED}, {"kind": EV_COMPLETED},
            {"kind": EV_SCHEDULED}, {"kind": EV_REQUEUED},
            {"kind": EV_SCHEDULED}, {"kind": EV_COMPLETED},
        ]
        totals = conservation(events)
        assert totals["scheduled"] == 3
        assert totals["completed"] == 2
        assert totals["requeued"] == 1
        assert totals["in_flight"] == 0
        assert totals["min_in_flight"] == 0

    def test_in_flight_positive_mid_run(self):
        events = [{"kind": EV_SCHEDULED}, {"kind": EV_SCHEDULED},
                  {"kind": EV_COMPLETED}]
        assert conservation(events)["in_flight"] == 1

    def test_negative_prefix_detected(self):
        # A completed without a prior scheduled is an accounting bug.
        events = [{"kind": EV_COMPLETED}, {"kind": EV_SCHEDULED}]
        assert conservation(events)["min_in_flight"] == -1

    def test_other_kinds_ignored(self):
        events = [{"kind": EV_START}, {"kind": "checkpoint"}]
        assert conservation(events)["scheduled"] == 0

    def test_last_event(self):
        events = [{"kind": EV_SCHEDULED, "uid": 0},
                  {"kind": EV_SCHEDULED, "uid": 1}]
        assert last_event(events, EV_SCHEDULED)["uid"] == 1
        assert last_event(events, EV_COMPLETED) is None
