"""Supervision primitives: retry with backoff + jitter, circuit breaking.

Used by the zone tailer (:class:`~repro.serve.reload.ZoneReloader`,
behind both ``repro watch`` and ``repro serve --watch``) to absorb
transient IO without either hammering a flapping resource or looping
forever on a permanent one. Jitter is drawn from a seeded PRNG so retry
schedules are reproducible in tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type


@dataclass
class RetryPolicy:
    """Exponential backoff: ``base_delay * 2^k`` capped at ``max_delay``,
    each delay scaled by a deterministic jitter in ``[1-j, 1+j]``."""

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    jitter_seed: int = 0

    def delays(self):
        """The (max_attempts - 1) sleep durations between attempts."""
        rng = random.Random(self.jitter_seed)
        for attempt in range(max(0, self.max_attempts - 1)):
            delay = min(self.max_delay, self.base_delay * (2 ** attempt))
            yield delay * (1.0 + rng.uniform(-self.jitter, self.jitter))


def retry_call(
    fn: Callable,
    policy: RetryPolicy,
    retry_on: Tuple[Type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
):
    """Call ``fn()`` with up to ``policy.max_attempts`` attempts.

    Returns ``(value, attempts_used)``; re-raises the last exception once
    attempts are spent. Only ``retry_on`` exceptions are retried.
    """
    delays = policy.delays()
    attempts = 0
    while True:
        attempts += 1
        try:
            return fn(), attempts
        except retry_on as exc:
            try:
                delay = next(delays)
            except StopIteration:
                raise exc
            sleep(delay)


class CircuitBreaker:
    """Open after ``max_failures`` *consecutive* failures.

    The owner checks :attr:`is_open` before doing more work; any success
    closes the breaker again (the tailer half-opens by construction: a
    poll that succeeds after failures resets the count).
    """

    def __init__(self, max_failures: int = 5):
        if max_failures <= 0:
            raise ValueError("max_failures must be positive")
        self.max_failures = max_failures
        self.consecutive_failures = 0
        self.total_failures = 0
        self.opened_count = 0

    @property
    def is_open(self) -> bool:
        return self.consecutive_failures >= self.max_failures

    @property
    def state(self) -> str:
        return "open" if self.is_open else "closed"

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self.total_failures += 1
        if self.consecutive_failures == self.max_failures:
            self.opened_count += 1

    def reset(self) -> None:
        self.consecutive_failures = 0
