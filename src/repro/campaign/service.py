"""The continuous differential-fuzzing campaign service.

``repro campaign --serve`` (or :meth:`repro.Session.campaign_service`)
turns the repo's one-shot verifiers into a standing soak daemon. Four
cooperating parts:

- a **corpus scheduler** (:mod:`repro.campaign.scheduler`) mixes fresh
  adversarial generation, delta mutations of prior zones, and replay of
  the persistent regression corpus into zone-tasks, each fanned into one
  unit per engine version;
- an **execution loop** runs each batch through the checkpointed unit
  loop one-shot campaigns use (:func:`~repro.core.campaign.run_unit_loop`
  over :func:`~repro.core.campaign.run_unit`, pooled or in-process when
  ``workers`` is unset): generated/regression units from scratch,
  mutation units through :meth:`IncrementalVerifier.diff_to` — each
  under its own cooperative budget and per-unit fault plan, a stalled
  worker's unit typed ``UNKNOWN(wall-clock-deadline)``;
- a **regression store** (:mod:`repro.campaign.store`) captures every
  BUG/divergence-producing zone as a minimized corpus entry and ingests
  serve-plane self-check divergences;
- an **observability surface**: an append-only JSONL event stream
  (:mod:`repro.campaign.events`), a one-shot JSON status socket (the
  ``repro.serve`` status-channel pattern), and a canonical *verdict
  ledger*.

Crash safety: the unit loop appends every completed unit to a
crash-safe checkpoint before the service sees it; ``--resume`` replays
completed units bit-identically and re-derives the schedule
deterministically, so a SIGKILLed campaign's final ledger equals an
uninterrupted run's.
SIGTERM/SIGINT request a graceful drain (finish the in-flight batch,
checkpoint, exit 0). Scheduler/executor failures go through the
watch-daemon supervision pattern: exponential backoff with jitter, then
a circuit breaker that stops the service (exit 2) rather than hot-loop
on a permanent fault.
"""

from __future__ import annotations

import json
import math
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.events import (
    EV_BATCH,
    EV_BREAKER,
    EV_CHECKPOINT,
    EV_COMPLETED,
    EV_DRAIN,
    EV_REGRESSION,
    EV_REQUEUED,
    EV_SCHEDULED,
    EV_START,
    EV_STOP,
    EventLog,
)
from repro.campaign.scheduler import KINDS, CorpusScheduler, WorkUnit
from repro.campaign.store import RegressionStore
from repro.core.campaign import CampaignUnit, run_unit_loop
from repro.incremental.digest import engine_digest, zone_digest
from repro.parallel.counters import PerfCounters
from repro.resilience import jsonl, verdicts as verdicts_mod
from repro.resilience.checkpoint import CheckpointWriter
from repro.resilience.supervise import CircuitBreaker, RetryPolicy

#: Ledger format version (first line of the ledger file).
LEDGER_FORMAT = 1

#: The registry file a running service drops in its corpus dir so
#: ``repro campaign --status`` can find the status socket.
SERVICE_FILE = "service.json"


@dataclass
class CampaignServiceConfig:
    """Run-shaping knobs of one campaign service."""

    corpus_dir: str
    seed: int = 2023
    versions: Tuple[str, ...] = ("verified", "v2.0")
    #: Stop once at least this many units have been scheduled (None =
    #: unbounded). The schedule is deterministic in (seed, units), which
    #: is what the SIGKILL/resume bit-identity tests pin.
    units: Optional[int] = None
    #: Stop after this many wall-clock seconds (checked between batches).
    duration: Optional[float] = None
    #: Zone-tasks per scheduling batch (default: the worker count).
    batch_tasks: Optional[int] = None
    checkpoint: Optional[str] = None   # default <corpus_dir>/checkpoint.jsonl
    events: Optional[str] = None       # default <corpus_dir>/events.jsonl
    ledger: Optional[str] = None       # default <corpus_dir>/ledger.jsonl
    resume: bool = False
    #: JSON status socket port (0 = ephemeral, None = disabled).
    status_port: Optional[int] = 0
    host: str = "127.0.0.1"
    #: (generated, mutation, regression) scheduling weights.
    weights: Tuple[float, float, float] = (0.5, 0.3, 0.2)
    #: Minimize captured regression zones against the differential oracle.
    minimize: bool = True
    #: Consecutive batch failures before the circuit breaker stops the run.
    max_failures: int = 5

    def path(self, name: str, override: Optional[str]) -> Path:
        return Path(override) if override else Path(self.corpus_dir) / name


@dataclass
class CampaignServiceReport:
    """What one service run amounted to."""

    reason: str = "drained"
    elapsed_seconds: float = 0.0
    units_scheduled: int = 0
    units_completed: int = 0
    units_replayed: int = 0
    units_requeued: int = 0
    verdict_mix: Dict[str, int] = field(default_factory=dict)
    kinds: Dict[str, int] = field(default_factory=dict)
    bug_categories: Dict[str, int] = field(default_factory=dict)
    regressions: Dict[str, object] = field(default_factory=dict)
    breaker: str = "closed"
    checkpoint: str = ""
    events: str = ""
    ledger: str = ""

    @property
    def exit_code(self) -> int:
        """0 on a clean drain (found bugs are the *product* of a fuzzing
        campaign, not a failure); 2 when supervision gave up."""
        return 2 if self.breaker == "open" else 0

    def to_json(self) -> Dict:
        return {
            "reason": self.reason,
            "elapsed_seconds": self.elapsed_seconds,
            "units_scheduled": self.units_scheduled,
            "units_completed": self.units_completed,
            "units_replayed": self.units_replayed,
            "units_requeued": self.units_requeued,
            "verdict_mix": dict(self.verdict_mix),
            "kinds": dict(self.kinds),
            "bug_categories": dict(self.bug_categories),
            "regressions": dict(self.regressions),
            "breaker": self.breaker,
            "checkpoint": self.checkpoint,
            "events": self.events,
            "ledger": self.ledger,
        }

    def describe(self) -> str:
        mix = ", ".join(f"{k}={v}" for k, v in sorted(self.verdict_mix.items()))
        lines = [
            f"campaign service: {self.units_completed} unit(s) in "
            f"{self.elapsed_seconds:.1f}s ({self.reason}); {mix or 'no units'}"
        ]
        if self.regressions.get("captured") or self.regressions.get("entries"):
            lines.append(
                f"  regression corpus: {self.regressions.get('entries', 0)} "
                f"entr(ies), {self.regressions.get('captured', 0)} captured "
                f"this run"
            )
        for category in sorted(self.bug_categories):
            lines.append(f"  {category}: {self.bug_categories[category]}")
        if self.breaker == "open":
            lines.append("  circuit breaker OPEN: the service gave up")
        return "\n".join(lines)


class StatusChannel:
    """One-shot JSON status socket (the ``repro.serve`` pattern): connect,
    receive one status document, connection closes."""

    def __init__(self, host: str, port: int, snapshot) -> None:
        self._snapshot = snapshot
        self._sock = socket.create_server((host, port))
        self._sock.settimeout(0.25)
        self.host = host
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="campaign-status", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                payload = json.dumps(
                    self._snapshot(), sort_keys=True).encode("utf-8")
                conn.sendall(payload + b"\n")
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=2.0)


def query_status(host: str, port: int, timeout: float = 5.0) -> Dict:
    """Fetch one status snapshot from a running service's status socket."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return json.loads(b"".join(chunks).decode("utf-8"))


class CampaignService:
    """The long-running campaign daemon. Construct, then :meth:`run`."""

    def __init__(self, config: CampaignServiceConfig, options=None) -> None:
        from repro.core.options import VerifyOptions

        self.config = config
        self.options = options if options is not None else VerifyOptions()
        self.corpus_dir = Path(config.corpus_dir)
        self.corpus_dir.mkdir(parents=True, exist_ok=True)
        self.store = RegressionStore(self.corpus_dir)
        self.checkpoint_path = config.path("checkpoint.jsonl", config.checkpoint)
        self.events_path = config.path("events.jsonl", config.events)
        self.ledger_path = config.path("ledger.jsonl", config.ledger)
        self.scheduler = CorpusScheduler(
            config.seed,
            config.versions,
            regression_entries=self._pin_regressions(),
            weights=config.weights,
        )
        self.breaker = CircuitBreaker(max_failures=config.max_failures)
        self.retry_policy = RetryPolicy(
            max_attempts=config.max_failures + 1,
            base_delay=0.2,
            max_delay=10.0,
            jitter_seed=config.seed,
        )
        self.perf = PerfCounters(
            workers=self.options.workers if self.options.workers else 1)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._state = "created"
        self._started_at: Optional[float] = None
        self._batch = 0
        self._units_scheduled = 0       # distinct units handed to execution
        self._attempts_inflight: set = set()
        self._requeued = 0
        self._replayed = 0
        self._verdict_mix: Dict[str, int] = {}
        self._kind_mix: Dict[str, int] = {k: 0 for k in KINDS}
        self._bug_categories: Dict[str, int] = {}
        self._solver_checks = 0
        self._divergences = 0
        self._incremental_reused = 0
        self._incremental_recomputed = 0
        self._checkpoint_units = 0
        self._checkpoint_at: Optional[float] = None
        self._engine_digests: Dict[str, str] = {}
        self._status_channel: Optional[StatusChannel] = None
        self._events: Optional[EventLog] = None
        self._sleep = time.sleep  # test seam

    # -- external control ----------------------------------------------------

    def request_stop(self) -> None:
        """Graceful drain: finish the in-flight batch, checkpoint, exit.
        Safe to call from a signal handler or another thread."""
        self._stop.set()

    @property
    def status_port(self) -> Optional[int]:
        channel = self._status_channel
        return channel.port if channel is not None else None

    # -- identity ------------------------------------------------------------

    def _pin_regressions(self):
        """The regression listing the scheduler replays.

        Fresh runs pin the store's current listing. A ``--resume`` run
        must pin the listing of the run it continues — the crashed run
        captured entries *into* the store before dying, so the store's
        current listing is already wider than what the original schedule
        saw. The original listing lives in the checkpoint header; entries
        are re-read from the store by id (the store never deletes).
        """
        if self.config.resume:
            from repro.resilience import checkpoint as checkpoint_mod

            header, _units, _corrupt = checkpoint_mod.load(
                self.checkpoint_path)
            if header is not None and header.get("kind") == "campaign-service":
                pinned = header.get("scheduler", {}).get("regressions", [])
                return [self.store.get(entry_id) for entry_id in pinned
                        if (self.store.entries_dir
                            / f"{entry_id}.json").exists()]
        return self.store.entries()

    def _header(self) -> Dict:
        return {
            "kind": "campaign-service",
            "scheduler": self.scheduler.header_material(),
            "smoke_first": self.options.smoke_first,
            "faults": self.options.faults,
        }

    def _engine_digest(self, version: str) -> str:
        digest = self._engine_digests.get(version)
        if digest is None:
            digest = engine_digest(version)
            self._engine_digests[version] = digest
        return digest

    def _unit_key(self, unit: WorkUnit) -> Dict:
        return {
            "uid": unit.uid,
            "kind": unit.kind,
            "engine": self._engine_digest(unit.version),
            "zone": zone_digest(unit.zone),
            "base": (zone_digest(unit.base_zone)
                     if unit.base_zone is not None else None),
        }

    def _ledger_row(self, unit: WorkUnit, verdict: Dict) -> Dict:
        """The canonical (timing-free, cache-independent) ledger line."""
        return {
            "uid": unit.uid,
            "task": unit.task,
            "kind": unit.kind,
            "version": unit.version,
            "provenance": unit.provenance,
            "zone": zone_digest(unit.zone),
            "base": (zone_digest(unit.base_zone)
                     if unit.base_zone is not None else None),
            "records": verdict.get("records"),
            "verdict": verdict.get("verdict"),
            "verified": verdict.get("verified"),
            "bug_categories": list(verdict.get("bug_categories", ())),
            "solver_checks": verdict.get("solver_checks"),
            "differential_divergences": verdict.get(
                "differential_divergences"),
            "unknown_reason": verdict.get("unknown_reason"),
            "error_class": verdict.get("error_class"),
        }

    # -- the loop ------------------------------------------------------------

    def run(self) -> CampaignServiceReport:
        """Run the campaign until drained/bounded/broken; blocking."""
        config = self.config
        self._started_at = time.monotonic()
        self._state = "running"
        self._events = EventLog(self.events_path)
        if config.status_port is not None:
            self._status_channel = StatusChannel(
                config.host, config.status_port, self.status)
        self._write_service_file()
        writer, completed = CheckpointWriter.open(
            self.checkpoint_path, self._header(), resume=config.resume)
        self._checkpoint_units = len(completed)
        self._checkpoint_at = time.monotonic()
        jsonl.write_atomic(self.ledger_path, [
            {"header": {"format": LEDGER_FORMAT, "seed": config.seed,
                        "versions": list(config.versions)}}])
        self._events.emit(
            EV_START,
            seed=config.seed,
            versions=list(config.versions),
            workers=self.options.workers,
            resume=config.resume,
            replaying=len(completed),
            regressions=len(self.store),
            pid=os.getpid(),
        )
        reason = "drained"
        pending_batch: Optional[List[WorkUnit]] = None
        try:
            while True:
                if self._stop.is_set():
                    reason = "drained"
                    break
                if (config.duration is not None
                        and time.monotonic() - self._started_at
                        >= config.duration):
                    reason = "duration"
                    break
                if (config.units is not None and pending_batch is None
                        and self.scheduler.state.units >= config.units):
                    reason = "units"
                    break
                try:
                    if pending_batch is None:
                        pending_batch = self._next_batch()
                    results = self._run_batch(pending_batch, writer, completed)
                    self._absorb(pending_batch, results)
                    pending_batch = None
                    self.breaker.record_success()
                except Exception as exc:  # supervision boundary
                    self._abandon_attempts()
                    self.breaker.record_failure()
                    self._events.emit(
                        EV_BREAKER,
                        state=self.breaker.state,
                        consecutive_failures=self.breaker.consecutive_failures,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    if self.breaker.is_open:
                        reason = "breaker"
                        break
                    self._sleep(self._backoff_delay())
        finally:
            self._state = "stopped"
            elapsed = time.monotonic() - self._started_at
            report = self._report(reason, elapsed)
            self._events.emit(EV_DRAIN, reason=reason)
            self._events.emit(EV_STOP, **{
                "units_completed": report.units_completed,
                "verdict_mix": report.verdict_mix,
                "breaker": report.breaker,
            })
            self._write_service_file(final=report)
            if self._status_channel is not None:
                self._status_channel.close()
                self._status_channel = None
        return report

    def _next_batch(self) -> List[WorkUnit]:
        config = self.config
        tasks = config.batch_tasks
        if tasks is None:
            tasks = max(1, self.options.workers or 1)
        if config.units is not None:
            remaining = config.units - self.scheduler.state.units
            tasks = min(tasks, max(
                1, math.ceil(remaining / len(config.versions))))
        self._batch += 1
        units = self.scheduler.next_batch(tasks)
        self._events.emit(EV_BATCH, batch=self._batch, tasks=tasks,
                          units=len(units))
        return units

    def _backoff_delay(self) -> float:
        delays = list(self.retry_policy.delays())
        position = min(self.breaker.consecutive_failures - 1,
                       len(delays) - 1)
        return delays[position] if delays else 0.0

    def _abandon_attempts(self) -> None:
        """A batch attempt died mid-flight: close its open ``scheduled``
        events as ``requeued`` so the stream stays conserved (the next
        attempt re-schedules the same units)."""
        with self._lock:
            inflight = sorted(self._attempts_inflight)
            self._attempts_inflight.clear()
            self._requeued += len(inflight)
        for uid in inflight:
            self._events.emit(EV_REQUEUED, uid=uid, cause="batch-failure")

    # -- batch execution -----------------------------------------------------

    def _schedule_attempt(self, unit: WorkUnit) -> None:
        with self._lock:
            if unit.uid not in self._attempts_inflight:
                self._units_scheduled += 1
            self._attempts_inflight.add(unit.uid)
        self._events.emit(EV_SCHEDULED, uid=unit.uid, task=unit.task,
                          unit_kind=unit.kind, version=unit.version,
                          provenance=unit.provenance)

    def _complete(self, unit: WorkUnit, verdict: Dict, replayed: bool,
                  value: Optional[Dict]) -> None:
        with self._lock:
            self._attempts_inflight.discard(unit.uid)
            if replayed:
                self._replayed += 1
            else:
                self._checkpoint_units += 1
                self._checkpoint_at = time.monotonic()
            incremental = (value or {}).get("incremental")
            if incremental:
                self._incremental_reused += incremental.get(
                    "partitions_reused", 0)
                self._incremental_recomputed += incremental.get(
                    "partitions_recomputed", 0)
        self._events.emit(EV_COMPLETED, uid=unit.uid, unit_kind=unit.kind,
                          version=unit.version,
                          verdict=verdict.get("verdict"),
                          replayed=replayed)

    def _run_batch(self, units: List[WorkUnit], writer,
                   completed: Dict[str, Dict]) -> Dict[int, Dict]:
        """Execute (or replay) one batch through the campaign unit loop;
        returns ``{uid: verdict}``."""
        for unit in units:
            self._schedule_attempt(unit)
        loop_units = [
            CampaignUnit(unit.uid, unit.zone, unit.version,
                         self._unit_key(unit), unit.base_zone)
            for unit in units
        ]
        results: Dict[int, Dict] = {}
        for pos, verdict, replayed, value in run_unit_loop(
            loop_units, self.options, self.perf, writer, completed
        ):
            unit = units[pos]
            results[unit.uid] = verdict.to_json()
            self._complete(unit, results[unit.uid], replayed, value)
        return results

    # -- result absorption ---------------------------------------------------

    def _absorb(self, units: List[WorkUnit],
                results: Dict[int, Dict]) -> None:
        """Fold one completed batch into ledger, corpus and feedback —
        in uid order, which is what keeps resumed schedules identical."""
        for unit in sorted(units, key=lambda u: u.uid):
            verdict = results[unit.uid]
            jsonl.append(self.ledger_path, self._ledger_row(unit, verdict))
            with self._lock:
                kind_count = self._verdict_mix.get(verdict["verdict"], 0)
                self._verdict_mix[verdict["verdict"]] = kind_count + 1
                self._kind_mix[unit.kind] = self._kind_mix.get(unit.kind, 0) + 1
                self._solver_checks += int(verdict.get("solver_checks") or 0)
                self._divergences += int(
                    verdict.get("differential_divergences") or 0)
                for category in verdict.get("bug_categories", ()):
                    self._bug_categories[category] = (
                        self._bug_categories.get(category, 0) + 1)
            self.scheduler.note_result(unit, verdict)
            self._capture(unit, verdict)
        self._events.emit(EV_CHECKPOINT, units=self._checkpoint_units,
                          path=str(self.checkpoint_path))

    def _capture(self, unit: WorkUnit, verdict: Dict) -> None:
        buggy = (verdict.get("verdict") == verdicts_mod.BUG
                 or (verdict.get("differential_divergences") or 0) > 0)
        if not buggy:
            return
        before = self.store.captured
        entry_id = self.store.record(
            unit.zone,
            version=unit.version,
            source=f"campaign:{unit.kind}",
            categories=tuple(verdict.get("bug_categories", ())),
            detail=unit.provenance,
            minimize=self.config.minimize,
        )
        if self.store.captured > before:
            self._events.emit(EV_REGRESSION, uid=unit.uid, entry=entry_id,
                              version=unit.version, unit_kind=unit.kind)

    # -- status --------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """The one-shot status document (also what the socket serves)."""
        now = time.monotonic()
        with self._lock:
            inflight = len(self._attempts_inflight)
            completed_units = sum(self._verdict_mix.values())
            uptime = (now - self._started_at
                      if self._started_at is not None else 0.0)
            checkpoint_age = (now - self._checkpoint_at
                              if self._checkpoint_at is not None else None)
            status = {
                "service": {
                    "state": self._state,
                    "pid": os.getpid(),
                    "seed": self.config.seed,
                    "versions": list(self.config.versions),
                    "workers": self.options.workers,
                    "uptime_seconds": round(uptime, 3),
                    "batch": self._batch,
                    "host": self.config.host,
                    "status_port": self.status_port,
                },
                "units": {
                    "scheduled": self._units_scheduled,
                    "completed": completed_units,
                    "replayed": self._replayed,
                    "requeued": self._requeued,
                    "in_flight": inflight,
                },
                "verdict_mix": dict(self._verdict_mix),
                "kinds": dict(self._kind_mix),
                "bug_categories": dict(self._bug_categories),
                "coverage": self.scheduler.state.as_dict(),
                "throughput": {
                    "units_per_second": round(
                        completed_units / uptime, 4) if uptime > 0 else 0.0,
                    "solver_checks": self._solver_checks,
                    "differential_divergences": self._divergences,
                    "incremental_partitions_reused":
                        self._incremental_reused,
                    "incremental_partitions_recomputed":
                        self._incremental_recomputed,
                },
                "perf": self.perf.finish().to_json(),
                "checkpoint": {
                    "path": str(self.checkpoint_path),
                    "units": self._checkpoint_units,
                    "age_seconds": (round(checkpoint_age, 3)
                                    if checkpoint_age is not None else None),
                },
                "events": str(self.events_path),
                "ledger": str(self.ledger_path),
                "regressions": self.store.as_dict(),
                "breaker": {
                    "state": self.breaker.state,
                    "consecutive_failures":
                        self.breaker.consecutive_failures,
                    "opened_count": self.breaker.opened_count,
                },
            }
        return status

    def _report(self, reason: str, elapsed: float) -> CampaignServiceReport:
        with self._lock:
            return CampaignServiceReport(
                reason=reason,
                elapsed_seconds=round(elapsed, 3),
                units_scheduled=self._units_scheduled,
                units_completed=sum(self._verdict_mix.values()),
                units_replayed=self._replayed,
                units_requeued=self._requeued,
                verdict_mix=dict(self._verdict_mix),
                kinds=dict(self._kind_mix),
                bug_categories=dict(self._bug_categories),
                regressions=self.store.as_dict(),
                breaker=self.breaker.state,
                checkpoint=str(self.checkpoint_path),
                events=str(self.events_path),
                ledger=str(self.ledger_path),
            )

    def _write_service_file(self,
                            final: Optional[CampaignServiceReport] = None
                            ) -> None:
        payload = {
            "pid": os.getpid(),
            "host": self.config.host,
            "status_port": self.status_port,
            "state": self._state,
            "seed": self.config.seed,
            "versions": list(self.config.versions),
        }
        if final is not None:
            payload["report"] = final.to_json()
            payload["status"] = self.status()
        path = self.corpus_dir / SERVICE_FILE
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)


def read_ledger(path) -> List[Dict]:
    """Parse a verdict ledger into its unit rows (header line dropped;
    a torn final row, as SIGKILL mid-append leaves, is skipped)."""
    records, _skipped = jsonl.read(path)
    return [record for record in records if "header" not in record]
