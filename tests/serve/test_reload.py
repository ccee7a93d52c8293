"""Zone-file reloading into the publish gate: retry, breaker, holds."""

import os

from repro.dns.zonefile import parse_zone_text
from repro.resilience.supervise import RetryPolicy
from repro.serve import PublishGate, ZoneReloader, build_snapshot
from repro.zonegen.corpus import MINIMAL_ZONE_TEXT

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0)


def write_zone(path, text, mtime):
    path.write_text(text)
    os.utime(path, (mtime, mtime))


def make_reloader(tmp_path, version="verified", **kwargs):
    path = tmp_path / "prod.zone"
    write_zone(path, MINIMAL_ZONE_TEXT, 1000)
    zone = parse_zone_text(MINIMAL_ZONE_TEXT)
    gate = PublishGate(build_snapshot(zone, version))
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("sleep", lambda _s: None)
    return path, gate, ZoneReloader(path, gate.reload_sink(path), **kwargs)


class TestPoll:
    def test_unchanged_file_is_a_noop(self, tmp_path):
        path, gate, reloader = make_reloader(tmp_path)
        reloader.prime()
        assert reloader.poll_once() is None
        assert reloader.reloads == 0
        assert gate.publishes == 0

    def test_changed_file_verifies_and_publishes(self, tmp_path):
        path, gate, reloader = make_reloader(tmp_path)
        reloader.prime()
        write_zone(path, MINIMAL_ZONE_TEXT.replace("192.0.2.10",
                                                   "192.0.2.55"), 2000)
        result = reloader.poll_once()
        assert result is not None and result.accepted
        assert gate.snapshot.sequence == 1
        assert reloader.reloads == 1

    def test_buggy_delta_reloaded_but_held(self, tmp_path):
        # The reload succeeds (file read + parsed); the *gate* holds it.
        path, gate, reloader = make_reloader(tmp_path, version="v2.0")
        reloader.prime()
        write_zone(path, MINIMAL_ZONE_TEXT + "*.wild IN A 192.0.2.20\n"
                                             "*.wild IN MX 10 ns1.example.com.\n",
                   2000)
        result = reloader.poll_once()
        assert result is not None and not result.accepted
        assert gate.snapshot.sequence == 0  # old snapshot keeps serving
        assert reloader.failures == 0  # not the reloader's failure
        assert reloader.breaker.state == "closed"
        assert gate.alarm is not None

    def test_parse_failure_feeds_breaker(self, tmp_path):
        path, gate, reloader = make_reloader(tmp_path, max_failures=2)
        reloader.prime()
        for mtime in (2000, 3000):
            write_zone(path, "not a zone file $ORIGIN garbage\n", mtime)
            assert reloader.poll_once() is None
        assert reloader.failures == 2
        assert reloader.breaker.is_open
        assert "zone reload failed" in reloader.last_error
        # Open breaker: polls become no-ops.
        polls = reloader.polls
        assert reloader.poll_once() is None
        assert reloader.polls == polls

    def test_failed_reload_retried_next_poll(self, tmp_path):
        # A torn read (file changed but read garbage) must NOT mark the
        # change as seen: the next poll retries the same mtime/size and
        # picks up the healed file without waiting for another change.
        path, gate, reloader = make_reloader(tmp_path, max_failures=5)
        reloader.prime()
        healed = MINIMAL_ZONE_TEXT.replace("192.0.2.10", "192.0.2.77")
        # Torn snapshot: same size (and, below, same mtime) as the final
        # file, but unparsable — only an uncommitted identity makes the
        # healed version reloadable.
        write_zone(path, "x" * len(healed), 2000)
        assert reloader.poll_once() is None
        assert reloader.failures == 1
        write_zone(path, healed, 2000)  # writer finished: identical identity
        result = reloader.poll_once()
        assert result is not None and result.accepted
        assert gate.snapshot.sequence == 1

    def test_persistently_bad_file_keeps_feeding_breaker(self, tmp_path):
        # An unchanged-but-malformed file fails every poll (not just the
        # poll that first saw it), so persistence trips the breaker as the
        # failure model documents.
        path, gate, reloader = make_reloader(tmp_path, max_failures=3)
        reloader.prime()
        write_zone(path, "not a zone file $ORIGIN garbage\n", 2000)
        for expected in (1, 2, 3):
            assert reloader.poll_once() is None
            assert reloader.failures == expected
        assert reloader.breaker.is_open

    def test_missing_file_retries_then_fails(self, tmp_path):
        path, gate, reloader = make_reloader(tmp_path)
        reloader.prime()
        path.unlink()
        assert reloader.poll_once() is None
        assert reloader.failures == 1
        assert "stat failed" in reloader.last_error

    def test_success_after_failures_closes_breaker(self, tmp_path):
        path, gate, reloader = make_reloader(tmp_path, max_failures=3)
        reloader.prime()
        write_zone(path, "garbage {\n", 2000)
        reloader.poll_once()
        assert reloader.breaker.consecutive_failures == 1
        write_zone(path, MINIMAL_ZONE_TEXT.replace("192.0.2.10",
                                                   "192.0.2.66"), 3000)
        result = reloader.poll_once()
        assert result is not None and result.accepted
        assert reloader.breaker.consecutive_failures == 0

    def test_as_dict(self, tmp_path):
        path, gate, reloader = make_reloader(tmp_path)
        reloader.prime()
        info = reloader.as_dict()
        assert info["breaker"] == "closed"
        assert info["path"].endswith("prod.zone")
