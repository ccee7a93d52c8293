"""A small, failure-aware process pool for verification units.

:func:`run_units` fans payloads out to a ``ProcessPoolExecutor`` and
yields ``(payload_index, status, value)`` tuples in *completion* order.
Callers are responsible for deterministic assembly (they know each
payload's stable index); this module is responsible for the three ways a
pool can go wrong:

- a **worker exception** propagates to the parent (exactly what an
  in-process run does), so it must survive pickling — an unpicklable one
  breaks the pool and shows up as a death. Before it propagates, the
  queued units are cancelled and the running workers stopped, so the
  caller sees it at once rather than after every queued unit has run;
- a **worker process death** (OOM kill, segfault) breaks the pool;
  every unit still in flight is yielded with status ``"died"`` so the
  caller can rerun the same worker on the same payload in-process — one
  lost worker never loses the run;
- a **stall** (no unit completes within ``grace_seconds``) terminates
  the pool's processes and yields the outstanding units with status
  ``"timeout"`` so the caller can degrade them to
  ``UNKNOWN(wall-clock-deadline)`` instead of hanging forever. Budgets are
  cooperative, so a stall can only mean a worker wedged outside any
  charge point; :func:`grace_seconds` sizes the period from the unit
  budget.

``workers <= 1`` (or a single payload) runs everything in-process with
identical semantics and no pool overhead: payloads are handed to the
worker as they are, nothing is pickled. Worker functions are
deterministic pure-ish functions of their payload, so in-process and
pooled execution produce the same values; both unit loops
(:func:`repro.core.campaign.run_unit_loop` and
:class:`~repro.incremental.engine.IncrementalVerifier`) call this for
every worker count, ``None`` included.

A worker never outlives the process that started it: each one watches
its parent pid from a daemon thread (:func:`_exit_with_parent`) and
exits once it changes, so a SIGKILLed campaign leaves no orphans behind.
(Under ``forkserver`` the parent is the fork server, which exits with
the campaign, so the same watch holds.)

Start method: ``fork`` when the platform offers it (inherits the
parent's compiled-IR cache; cheap on Linux), else ``spawn`` — worker
functions and payloads are top-level/picklable either way. Override
with ``REPRO_MP_START=fork|spawn|forkserver``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Statuses a unit can come back with.
OK = "ok"
DIED = "died"
TIMEOUT = "timeout"

_ENV_START = "REPRO_MP_START"

#: Seconds between a pool worker's checks that its parent is alive.
PARENT_POLL_SECONDS = 0.5

#: Seconds to wait for each terminated worker to exit.
KILL_JOIN_SECONDS = 5.0


def mp_context():
    """The multiprocessing context pooled runs use."""
    methods = multiprocessing.get_all_start_methods()
    chosen = os.environ.get(_ENV_START)
    if chosen is None:
        chosen = "fork" if "fork" in methods else "spawn"
    elif chosen not in methods:
        raise ValueError(
            f"{_ENV_START}={chosen!r} not available here (have {methods})"
        )
    return multiprocessing.get_context(chosen)


def grace_seconds(budget_seconds: Optional[float]) -> Optional[float]:
    """The stall watchdog for units under a ``budget_seconds`` deadline:
    generous enough that a cooperative deadline always fires first, tight
    enough that a wedged worker cannot hang the run. None (no watchdog)
    when units are unbudgeted — then nothing bounds a unit by design."""
    if budget_seconds is None:
        return None
    return 3.0 * budget_seconds + 30.0


def _exit_with_parent() -> None:
    """Pool-worker initializer: start a daemon thread that ends the worker
    (``os._exit``, mid-unit if need be) once its parent is gone, which
    shows as ``os.getppid()`` changing (the orphan is reparented)."""
    parent_pid = os.getppid()

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool's workers and reap them, so neither shutdown nor
    interpreter exit blocks on a wedged process and none outlives the
    call. ``_processes`` is private API; guarded so a stdlib change
    degrades to a plain (possibly blocking) shutdown rather than an
    error."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except (OSError, AttributeError):
            pass
    for process in processes:
        try:
            process.join(KILL_JOIN_SECONDS)
        except (OSError, AttributeError, AssertionError):
            pass


def run_units(
    worker: Callable[[Dict], Dict],
    payloads: List[Dict],
    workers: int,
    grace_seconds: Optional[float] = None,
) -> Iterator[Tuple[int, str, Optional[Dict]]]:
    """Yield ``(payload_index, status, value)`` in completion order.

    ``status`` is ``"ok"`` (value is the worker's return), ``"died"``
    (worker process vanished; value None — the caller reruns
    ``worker(payload)`` itself) or ``"timeout"`` (stall past
    ``grace_seconds``; value None). Ordinary exceptions raised *by* the
    worker function propagate. With ``workers <= 1`` or one payload the
    worker runs in this process, in payload order, on the payload
    objects themselves; otherwise the pool pickles each payload.
    """
    if workers <= 1 or len(payloads) <= 1:
        for index, payload in enumerate(payloads):
            yield index, OK, worker(payload)
        return

    with ProcessPoolExecutor(
        max_workers=min(workers, len(payloads)), mp_context=mp_context(),
        initializer=_exit_with_parent,
    ) as pool:
        futures = {
            pool.submit(worker, payload): index
            for index, payload in enumerate(payloads)
        }
        pending = set(futures)
        last_completion = time.monotonic()
        broken = False
        try:
            while pending:
                poll = 0.25
                if grace_seconds is not None:
                    poll = min(poll, max(0.01, grace_seconds / 10))
                done, pending = wait(pending, timeout=poll,
                                     return_when=FIRST_COMPLETED)
                if done:
                    last_completion = time.monotonic()
                    for future in done:
                        index = futures[future]
                        try:
                            yield index, OK, future.result()
                        except BrokenProcessPool:
                            broken = True
                            yield index, DIED, None
                    if broken:
                        # The pool cannot run anything further; surrender the
                        # in-flight units to the caller's fallback path.
                        for future in pending:
                            yield futures[future], DIED, None
                        return
                    continue
                if (
                    grace_seconds is not None
                    and time.monotonic() - last_completion > grace_seconds
                ):
                    for future in pending:
                        future.cancel()
                    _kill_pool_processes(pool)
                    for future in pending:
                        yield futures[future], TIMEOUT, None
                    return
        except BaseException:
            # A worker raised (or the caller stopped consuming): cancel
            # the queued units and stop the running ones, rather than let
            # the pool's shutdown run every queued unit first.
            _kill_pool_processes(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            raise
