"""Program time in reference seconds: wall time scaled by the host's speed.

On a shared host the CPU the program runs on changes speed under it. On
the 2-vCPU KVM guest this benchmark was built on, a fixed Python loop ran
at anywhere from a third to all of its best speed, switching within a
fraction of a second (another tenant on the same physical core) and
drifting over minutes; a `repro verify` of the evaluation zone took from
4.3 to 8.2 s on one build. Wall times taken at different moments do not
compare, so the benchmark measures the speed alongside every time it
takes:

- a *calibration* runs :func:`kernel`, a fixed pure-Python loop, on the
  program's CPU for :data:`CAL_S` while the program is idle or stopped,
  giving the CPU's speed at that moment in calls per second;
- program time is taken in *slices* of at most :data:`SLICE_S`, each
  between two calibrations. A slice's *reference time* is its wall time
  times the mean of those two speeds over :data:`REFERENCE_SPEED`: what
  it would have taken on a CPU running the kernel at that speed.

A server between queries is idle, so the load generator calibrates
between its slices of traffic. Served traffic follows the host's speed
less closely than the loop does (a round trip is partly the kernel's
network path and the wake-up of an idle process), so a slice of traffic
is scaled by the speed ratio to the power :data:`SERVING_SENSITIVITY`
(:func:`serving_scale`). A process that computes until it is done
(a verify, a server's boot) is stopped with SIGSTOP for each calibration
and continued with SIGCONT by :class:`Slicer`; a server publishing a
zone under open-loop traffic, by :class:`Pauses` between the generator's
sends.
"""

from __future__ import annotations

import gc
import os
import select
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Calls of :func:`kernel` per second that define one reference second;
#: about the kernel's uncontended speed on the 2.1 GHz Xeon the benchmark
#: was built on, so reference seconds read close to wall seconds there.
REFERENCE_SPEED = 9000.0
#: Length of one calibration, and the most program time between two.
CAL_S = 0.025
SLICE_S = 0.2
#: How long to wait for a SIGSTOP to take effect before calibrating anyway.
STOP_TIMEOUT_S = 0.05
#: How closely served traffic follows the speed ratio: the slope of
#: log(rate) against log(speed ratio), measured on the host above. For
#: capacity and latency on serve-hot and serve-wide, 0.54 to 0.64 across
#: the slices of one run (350 slices, 35 runs). For serve-churn's query
#: latency, mostly a wait for the interpreter lock whose switch interval
#: is wall time, 0.47 across runs (37 runs).
SERVING_SENSITIVITY = 0.6
CHURN_SENSITIVITY = 0.5


def kernel() -> int:
    """The fixed reference work: dictionary, tuple and string operations,
    as the interpreter does for the program."""
    counts = {}
    for i in range(300):
        key = ("label%d" % (i & 63), i & 7)
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts))


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time between calibrations ``before`` and
    ``after``, in reference seconds."""
    return seconds * (before + after) / (2.0 * REFERENCE_SPEED)


def serving_scale(before: float, after: float) -> float:
    """Factor from wall to reference time for a slice of served traffic
    between calibrations ``before`` and ``after``."""
    return reference_seconds(1.0, before, after) ** SERVING_SENSITIVITY


class Calibrator:
    """Measures the speed of the program's CPU (``cpu``; None: the one
    this process runs on) and keeps every speed it measured."""

    def __init__(self, cpu: Optional[int]):
        self.cpu = cpu
        self.speeds: List[float] = []

    def measure(self) -> float:
        """Run the kernel on the program's CPU for :data:`CAL_S`; calls
        per second. Moves only the calling thread, and back."""
        home = os.sched_getaffinity(0)
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            calls = 0
            start = time.perf_counter()
            deadline = start + CAL_S
            while True:
                kernel()
                calls += 1
                now = time.perf_counter()
                if now >= deadline:
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
            if self.cpu is not None:
                os.sched_setaffinity(0, home)
        speed = calls / (now - start)
        self.speeds.append(speed)
        return speed


@dataclass
class Timing:
    """One timed interval: wall seconds the program ran, the same in
    reference seconds, and how many slices it was taken in."""

    raw_s: float = 0.0
    ref_s: float = 0.0
    slices: int = 0

    def add(self, seconds: float, before: float, after: float) -> None:
        self.raw_s += seconds
        self.ref_s += reference_seconds(seconds, before, after)
        self.slices += 1


def _all_stopped(pid: int) -> bool:
    """Whether no thread of ``pid`` can run (stopped, dead or gone)."""
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return True
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat", "rb") as handle:
                state = handle.read().rsplit(b")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if state not in (b"T", b"t", b"Z", b"X"):
            return False
    return True


def send(pidfd: int, signum: int) -> None:
    """Signal the process behind ``pidfd``, if it still exists."""
    try:
        signal.pidfd_send_signal(pidfd, signum)
    except ProcessLookupError:
        pass


def stop(pidfd: int, pid: int) -> None:
    """SIGSTOP the process and wait until none of its threads runs."""
    send(pidfd, signal.SIGSTOP)
    deadline = time.perf_counter() + STOP_TIMEOUT_S
    while not _all_stopped(pid) and time.perf_counter() < deadline:
        time.sleep(0.0001)


class Pauses:
    """Calibrations with a process stopped, taken whenever the caller
    asks — an open-loop generator between sends, which shifts its
    schedule by each pause so no query waits on one. Each pause is
    logged as (stopped at, continued at, speed)."""

    def __init__(self, calibrator: Calibrator, proc: subprocess.Popen):
        self.cal = calibrator
        self.pid = proc.pid
        self.pidfd = os.pidfd_open(proc.pid)
        self.log: List[Tuple[float, float, float]] = []

    def __call__(self) -> None:
        stopped = time.perf_counter()
        stop(self.pidfd, self.pid)
        try:
            speed = self.cal.measure()
        finally:
            send(self.pidfd, signal.SIGCONT)
        self.log.append((stopped, time.perf_counter(), speed))

    def timing(self, start: float, end: float, before: float, after: float) -> Timing:
        """The program's time from ``start`` to ``end``, without the
        pauses in between; ``before`` was measured just before ``start``
        and ``after`` just after ``end``."""
        timing = Timing()
        speed = before
        for stopped, continued, pause_speed in self.log:
            if start <= stopped < end:
                timing.add(stopped - start, speed, pause_speed)
                start, speed = continued, pause_speed
        timing.add(end - start, speed, after)
        return timing

    def close(self) -> None:
        os.close(self.pidfd)


class Slicer:
    """Times a child process from ``started`` until :meth:`finish`,
    stopping it every :data:`SLICE_S` for a calibration.

    ``before`` is a speed measured just before ``started``. With
    ``slice_s`` None the process is never stopped and the whole interval
    is one slice (for traced runs, whose spans would otherwise include
    the stops). A background thread does the stopping; the caller is
    free to wait on the process, talk to it, and call :meth:`finish`
    when the timed interval is over.
    """

    def __init__(self, calibrator: Calibrator, proc: subprocess.Popen,
                 started: float, before: float,
                 slice_s: Optional[float] = SLICE_S):
        self.cal = calibrator
        self.pid = proc.pid
        self.pidfd = os.pidfd_open(proc.pid)
        self.slice_s = slice_s
        self.timing = Timing()
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._start = started
        self._speed = before
        self._running = True
        self._stopped_at = started
        self._end = started
        self._thread = threading.Thread(target=self._loop, name="slicer", daemon=True)
        self._thread.start()

    def wait_exit(self, timeout: float) -> bool:
        """Wait until the process has exited (it is not reaped)."""
        ready, _, _ = select.select([self.pidfd], [], [], timeout)
        return bool(ready)

    def _loop(self) -> None:
        try:
            while True:
                timeout = (None if self.slice_s is None else
                           max(0.0, self._start + self.slice_s - time.perf_counter()))
                self._done.wait(timeout)
                with self._lock:
                    if self._done.is_set():
                        break
                    stop(self.pidfd, self.pid)
                    self._stopped_at = time.perf_counter()
                    self._running = False
                after = self.cal.measure()
                with self._lock:
                    self.timing.add(self._stopped_at - self._start, self._speed, after)
                    self._speed = after
                    send(self.pidfd, signal.SIGCONT)
                    self._start = time.perf_counter()
                    self._running = True
                    if self._done.is_set():  # finish() came while stopped
                        return
            self.timing.add(self._end - self._start, self._speed, self.cal.measure())
        finally:
            send(self.pidfd, signal.SIGCONT)

    def finish(self) -> Timing:
        """End the timed interval now (or, if the process is stopped, at
        the moment it was stopped), and return its timing. The process
        is left running."""
        with self._lock:
            if not self._done.is_set():
                self._end = time.perf_counter() if self._running else self._stopped_at
                self._done.set()
        self._thread.join()
        if self.pidfd >= 0:
            os.close(self.pidfd)
            self.pidfd = -1
        return self.timing
