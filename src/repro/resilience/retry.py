"""Retry with exponential backoff and jitter.

Only *idempotent* work is ever retried: connection establishment and
pure-read statements (``SELECT``/``VALUES``/``WITH`` — the same set the
query-result cache accepts).  A write that failed mid-transaction is
never re-run; it surfaces to ``%SQL_MESSAGE`` handling instead.  The
retry loop also refuses to sleep past a request's
:class:`~repro.resilience.deadline.Deadline`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.blocking import BLOCKING, WouldBlock
from repro.errors import SQLError, is_transient
from repro.resilience.deadline import Deadline

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule: ``base * multiplier**(n-1)``, capped.

    ``jitter`` is the fraction of each delay that is randomised — the
    classic "full jitter over the top half": with ``jitter=0.5`` a
    nominal 40 ms delay sleeps uniformly in [20 ms, 40 ms], decorrelating
    retry storms from many concurrent requests.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.5
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, attempt: int,
              rng: Optional[random.Random] = None) -> float:
        """Sleep before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        nominal = min(self.max_delay,
                      self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter <= 0.0:
            return nominal
        rng = rng if rng is not None else random
        return nominal * (1.0 - self.jitter * rng.random())

    @property
    def retries(self) -> int:
        return self.max_attempts - 1


#: A policy that never retries (single attempt).
NO_RETRY = RetryPolicy(max_attempts=1)

#: The policy applied when an ambient fault injector is active and the
#: caller configured nothing: absorbs injected transient read faults.
DEFAULT_RETRY = RetryPolicy(max_attempts=4, base_delay=0.002,
                            max_delay=0.05)


def call_with_retry(func: Callable[[], T], *,
                    policy: RetryPolicy,
                    deadline: Optional[Deadline] = None,
                    is_retryable: Callable[[BaseException], bool]
                    = is_transient,
                    rng: Optional[random.Random] = None,
                    sleep: Callable[[float], None] = time.sleep,
                    on_retry: Optional[Callable[[int, SQLError, float],
                                                None]] = None) -> T:
    """Run ``func`` under ``policy``, retrying transient failures.

    ``on_retry(attempt, error, delay)`` is called before each sleep so
    callers can count retries.  The final failure is re-raised as-is.
    A deadline stops retrying early: when the next backoff would sleep
    past it, the last error surfaces immediately.
    """
    attempt = 1
    while True:
        if deadline is not None:
            deadline.check()
        try:
            return func()
        except SQLError as exc:
            if attempt >= policy.max_attempts or not is_retryable(exc):
                raise
            delay = policy.delay(attempt, rng)
            if deadline is not None and deadline.remaining() <= delay:
                raise
            if BLOCKING.attempt is not None:
                raise WouldBlock("sleep") from None
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            sleep(delay)
            attempt += 1
