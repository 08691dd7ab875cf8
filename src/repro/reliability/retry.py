"""Retry with exponential backoff + jitter, clock- and sleep-injectable.

The delay schedule is the classic capped geometric series with
*additive* jitter: attempt ``n`` waits

    ``d_n = min(base * multiplier**n, cap) * (1 + jitter * u_n)``

with ``u_n`` uniform in [0, 1), and successive delays clamped to be
monotone non-decreasing — two properties the reliability property tests
pin down (jitter never exceeds its bound, delays never shrink).  Jitter
draws come from a :class:`~repro.util.rng.RngStream`, so a retry
schedule is reproducible given its seed.  :class:`Retry` builds a
call's schedule at its first failure: most calls succeed at once, and
the schedule (stream and draws) is the same whenever it is built.

Sleeping is indirected through a tiny ``sleep(seconds)`` callable so
tests drive a :class:`VirtualSleeper` over a
:class:`~repro.telemetry.clock.ManualClock` — chaos suites never block
on real time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.telemetry import ManualClock
from repro.telemetry.logging import get_logger
from repro.util.rng import RngStream

__all__ = [
    "RetryBudgetExceeded",
    "BackoffPolicy",
    "VirtualSleeper",
    "Retry",
]


class RetryBudgetExceeded(RuntimeError):
    """All attempts failed; carries the last underlying error as cause."""

    def __init__(self, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"operation failed after {attempts} attempt(s): {last!r}"
        )
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class BackoffPolicy:
    """Shape of the retry delay schedule.

    Attributes:
        max_retries: retries after the first attempt (0 = fail fast).
        base_s: first retry's un-jittered delay.
        multiplier: geometric growth factor (>= 1).
        cap_s: upper bound on the un-jittered delay.
        jitter: additive jitter fraction in [0, 1]; the jittered delay
            stays within ``[d, d * (1 + jitter)]`` of the raw delay ``d``.
    """

    max_retries: int = 3
    base_s: float = 0.02
    multiplier: float = 2.0
    cap_s: float = 1.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_s < 0:
            raise ValueError(f"base_s must be >= 0, got {self.base_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.cap_s < self.base_s:
            raise ValueError(
                f"cap_s ({self.cap_s}) must be >= base_s ({self.base_s})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def raw_delay(self, attempt: int) -> float:
        """Un-jittered delay before retry ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return min(self.base_s * self.multiplier**attempt, self.cap_s)

    def schedule(self, rng: RngStream) -> list[float]:
        """The full jittered delay sequence for one operation.

        Monotone non-decreasing by construction: each delay is clamped
        to at least its predecessor before being returned.
        """
        delays: list[float] = []
        previous = 0.0
        for attempt in range(self.max_retries):
            raw = self.raw_delay(attempt)
            jittered = raw * (1.0 + self.jitter * rng.uniform())
            previous = max(previous, jittered)
            delays.append(previous)
        return delays


class VirtualSleeper:
    """A ``sleep`` that advances a :class:`ManualClock` instead of blocking.

    Counts total virtual seconds slept, so tests can assert backoff
    accounting without timing anything.
    """

    def __init__(self, clock: ManualClock) -> None:
        self.clock = clock
        self.slept_s = 0.0

    def __call__(self, seconds: float) -> None:
        self.clock.advance(seconds)
        self.slept_s += seconds


class Retry:
    """Executes callables under a :class:`BackoffPolicy`.

    Args:
        policy: the delay schedule.
        retryable: exception types worth retrying; anything else
            propagates immediately.
        sleep: ``sleep(seconds)`` callable (:func:`time.sleep` by
            default; tests pass a :class:`VirtualSleeper`).
        seed: jitter stream seed (schedules are reproducible per seed;
            the ``n``-th :meth:`call` draws its schedule from the
            ``("retry", n)`` substream, only once an attempt fails).
        metrics: optional :class:`~repro.telemetry.MetricsRegistry` for
            ``reliability.retries`` / ``reliability.retry_giveups``.
    """

    def __init__(
        self,
        policy: BackoffPolicy | None = None,
        retryable: tuple[type[BaseException], ...] | None = None,
        sleep=time.sleep,
        seed: int = 0,
        metrics=None,
    ) -> None:
        from repro.reliability.faults import InjectedError

        self.policy = policy if policy is not None else BackoffPolicy()
        self.retryable = retryable if retryable is not None else (InjectedError,)
        self.sleep = sleep
        self.seed = seed
        self._calls = 0
        self._retries = metrics.counter(
            "reliability.retries", "retry attempts issued"
        ) if metrics is not None else None
        self._giveups = metrics.counter(
            "reliability.retry_giveups", "operations that exhausted retries"
        ) if metrics is not None else None

    def call(self, fn, *args, on_failure=None, **kwargs):
        """Run ``fn`` until it succeeds or the retry budget is spent.

        ``on_failure(exc)`` is invoked per failed attempt (the circuit
        breaker's ``record_failure`` hook in the service).  A call that
        succeeds first time draws no jitter.

        Raises:
            RetryBudgetExceeded: every attempt raised a retryable error;
                the last one is chained as ``__cause__``.
        """
        self._calls += 1
        call_index = self._calls
        delays: list[float] | None = None
        attempts = 0
        while True:
            try:
                return fn(*args, **kwargs)
            except self.retryable as exc:
                attempts += 1
                if on_failure is not None:
                    on_failure(exc)
                if delays is None:
                    delays = self.policy.schedule(
                        RngStream(self.seed, "retry", call_index)
                    )
                if attempts > len(delays):
                    if self._giveups is not None:
                        self._giveups.inc()
                    get_logger().error(
                        "reliability.retry_giveup",
                        attempts=attempts, error=type(exc).__name__,
                    )
                    raise RetryBudgetExceeded(attempts, exc) from exc
                if self._retries is not None:
                    self._retries.inc()
                delay = delays[attempts - 1]
                get_logger().warning(
                    "reliability.retry",
                    attempt=attempts, delay_s=round(delay, 6),
                    error=type(exc).__name__,
                )
                if delay > 0:
                    self.sleep(delay)
