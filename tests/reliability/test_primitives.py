"""Unit tests for the resilience primitives, all on virtual time."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.reliability import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionQueue,
    BackoffPolicy,
    BreakerOpen,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    InjectedError,
    ReliabilityPolicy,
    Retry,
    RetryBudgetExceeded,
)
from repro.telemetry import MetricsRegistry
from repro.util.rng import RngStream


class TestBackoffPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_s": -0.1},
            {"multiplier": 0.5},
            {"base_s": 2.0, "cap_s": 1.0},
            {"jitter": -0.1},
            {"jitter": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)

    def test_raw_delay_grows_geometrically_to_the_cap(self):
        policy = BackoffPolicy(base_s=0.1, multiplier=2.0, cap_s=0.5)
        assert policy.raw_delay(0) == pytest.approx(0.1)
        assert policy.raw_delay(1) == pytest.approx(0.2)
        assert policy.raw_delay(2) == pytest.approx(0.4)
        assert policy.raw_delay(3) == pytest.approx(0.5)  # capped
        assert policy.raw_delay(10) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            policy.raw_delay(-1)

    def test_schedule_is_reproducible_per_stream(self):
        policy = BackoffPolicy(max_retries=6)
        assert policy.schedule(RngStream(7, "retry", 1)) == policy.schedule(
            RngStream(7, "retry", 1)
        )
        assert policy.schedule(RngStream(7, "retry", 1)) != policy.schedule(
            RngStream(7, "retry", 2)
        )

    def test_zero_jitter_is_the_raw_schedule(self):
        policy = BackoffPolicy(max_retries=4, jitter=0.0)
        delays = policy.schedule(RngStream(0))
        assert delays == [policy.raw_delay(n) for n in range(4)]


class TestRetry:
    def test_first_try_success_never_sleeps(self, sleeper):
        retry = Retry(sleep=sleeper)
        assert retry.call(lambda: 42) == 42
        assert sleeper.slept_s == 0.0

    def test_transient_failures_are_retried(self, sleeper):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise InjectedError("x", FaultRule(site="x"))
            return "ok"

        assert Retry(sleep=sleeper).call(flaky) == "ok"
        assert len(attempts) == 3
        assert sleeper.slept_s > 0.0

    def test_budget_exhaustion_chains_the_last_error(self, sleeper):
        def always_fails():
            raise InjectedError("x", FaultRule(site="x"))

        retry = Retry(BackoffPolicy(max_retries=2), sleep=sleeper)
        with pytest.raises(RetryBudgetExceeded) as excinfo:
            retry.call(always_fails)
        assert excinfo.value.attempts == 3  # first try + 2 retries
        assert isinstance(excinfo.value.__cause__, InjectedError)

    def test_non_retryable_propagates_immediately(self, sleeper):
        def bad():
            raise KeyError("nope")

        with pytest.raises(KeyError):
            Retry(sleep=sleeper).call(bad)
        assert sleeper.slept_s == 0.0

    def test_custom_retryable_types(self, sleeper):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise TimeoutError("blip")
            return "ok"

        retry = Retry(retryable=(TimeoutError,), sleep=sleeper)
        assert retry.call(flaky) == "ok"

    def test_on_failure_hook_sees_every_failed_attempt(self, sleeper):
        seen = []

        def always_fails():
            raise InjectedError("x", FaultRule(site="x"))

        retry = Retry(BackoffPolicy(max_retries=2), sleep=sleeper)
        with pytest.raises(RetryBudgetExceeded):
            retry.call(always_fails, on_failure=seen.append)
        assert len(seen) == 3

    def test_sleeps_follow_the_jittered_schedule(self, clock, sleeper):
        policy = BackoffPolicy(max_retries=3, jitter=0.0)

        def always_fails():
            raise InjectedError("x", FaultRule(site="x"))

        retry = Retry(policy, sleep=sleeper)
        with pytest.raises(RetryBudgetExceeded):
            retry.call(always_fails)
        expected = sum(policy.raw_delay(n) for n in range(3))
        assert sleeper.slept_s == pytest.approx(expected)
        assert clock.now() == pytest.approx(expected)

    def test_a_successful_call_seeds_no_generator(self, monkeypatch, sleeper):
        seeded = []
        default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            seeded.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        retry = Retry(BackoffPolicy(max_retries=3), sleep=sleeper)
        assert [retry.call(lambda: n) for n in range(5)] == list(range(5))
        assert seeded == []

    def test_schedule_built_on_failure_is_the_calls_own(self):
        """The n-th call, even after successful ones, backs off on the
        ``("retry", n)`` schedule."""
        policy = BackoffPolicy(max_retries=3)
        slept = []
        retry = Retry(policy, sleep=slept.append, seed=5)
        failures = []

        def fails_twice():
            failures.append(1)
            if len(failures) <= 2:
                raise InjectedError("x", FaultRule(site="x"))
            return "ok"

        assert retry.call(lambda: "first") == "first"
        assert retry.call(fails_twice) == "ok"
        assert slept == policy.schedule(RngStream(5, "retry", 2))[:2]

    def test_metrics_accounting(self, sleeper):
        registry = MetricsRegistry()

        def always_fails():
            raise InjectedError("x", FaultRule(site="x"))

        retry = Retry(BackoffPolicy(max_retries=2), sleep=sleeper, metrics=registry)
        with pytest.raises(RetryBudgetExceeded):
            retry.call(always_fails)
        assert registry.counter("reliability.retries").value == 2
        assert registry.counter("reliability.retry_giveups").value == 1


class TestDeadline:
    def test_unbounded_never_expires(self, clock):
        deadline = Deadline.unbounded(clock=clock)
        clock.advance(1e9)
        assert not deadline.bounded
        assert not deadline.expired
        assert deadline.remaining() == math.inf
        assert deadline.require("stage") == math.inf

    def test_budget_must_be_positive(self, clock):
        with pytest.raises(ValueError):
            Deadline(0.0, clock=clock)
        with pytest.raises(ValueError):
            Deadline(-1.0, clock=clock)

    def test_consumption_and_expiry(self, clock):
        deadline = Deadline(1.0, clock=clock)
        assert deadline.require("early") == pytest.approx(1.0)
        clock.advance(0.7)
        assert deadline.elapsed() == pytest.approx(0.7)
        assert deadline.remaining() == pytest.approx(0.3)
        assert deadline.allows(0.25)
        assert not deadline.allows(0.35)
        clock.advance(0.5)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.require("late-stage")
        assert excinfo.value.label == "late-stage"
        assert excinfo.value.overrun_s == pytest.approx(0.2)


class TestCircuitBreaker:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"reset_after_s": 0.0},
            {"half_open_max_calls": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)

    def test_opens_after_consecutive_failures_only(self, clock):
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_open_refuses_with_retry_hint(self, clock):
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(4.0)
        with pytest.raises(BreakerOpen) as excinfo:
            breaker.check()
        assert excinfo.value.retry_in_s == pytest.approx(6.0)

    def test_full_cycle_closed_open_half_open_closed(self, clock):
        breaker = CircuitBreaker(failure_threshold=2, reset_after_s=5.0, clock=clock)
        assert breaker.state == CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_cooldown(self, clock):
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == OPEN
        clock.advance(4.9)
        assert breaker.state == OPEN  # cooldown restarted at the re-open
        clock.advance(0.1)
        assert breaker.state == HALF_OPEN

    def test_half_open_bounds_concurrent_probes(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=1.0, half_open_max_calls=2, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # third concurrent probe refused

    def test_state_metrics(self, clock):
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=1.0, clock=clock, metrics=registry
        )
        gauge = registry.gauge("reliability.breaker.state")
        assert gauge.value == 0
        breaker.record_failure()
        assert gauge.value == 2
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        assert gauge.value == 1
        assert breaker.allow()
        breaker.record_success()
        assert gauge.value == 0
        assert registry.counter("reliability.breaker.opened").value == 1
        assert registry.counter("reliability.breaker.closed").value == 1
        assert registry.counter("reliability.breaker.refused").value == 1


class TestAdmissionQueue:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(depth=0)

    def test_admits_to_depth_then_sheds(self):
        queue = AdmissionQueue(depth=2)
        first = queue.try_admit()
        second = queue.try_admit()
        assert first is not None and second is not None
        assert queue.try_admit() is None
        assert queue.in_flight == 2
        assert queue.shed_count == 1
        first.release()
        assert queue.try_admit() is not None

    def test_double_release_is_an_error(self):
        queue = AdmissionQueue(depth=1)
        ticket = queue.try_admit()
        ticket.release()
        with pytest.raises(RuntimeError, match="twice"):
            ticket.release()
        assert queue.in_flight == 0

    def test_context_manager_releases_once(self):
        queue = AdmissionQueue(depth=1)
        with queue.try_admit():
            assert queue.in_flight == 1
        assert queue.in_flight == 0
        # an explicit release inside the block is not released again
        ticket = queue.try_admit()
        with ticket:
            ticket.release()
        assert queue.in_flight == 0

    def test_metrics_accounting(self):
        registry = MetricsRegistry()
        queue = AdmissionQueue(depth=1, metrics=registry)
        with queue.try_admit():
            queue.try_admit()
        assert registry.counter("reliability.admission.admitted").value == 1
        assert registry.counter("reliability.admission.shed").value == 1
        assert registry.gauge("reliability.admission.in_flight").value == 0
        assert registry.gauge("reliability.admission.depth").value == 1


class TestReliabilityPolicy:
    def test_default_policy_is_inert(self):
        policy = ReliabilityPolicy()
        assert policy.deadline_s == math.inf
        assert policy.admission_depth >= 10_000

    def test_from_cli(self):
        policy = ReliabilityPolicy.from_cli(deadline_ms=250, max_retries=7)
        assert policy.deadline_s == pytest.approx(0.25)
        assert policy.backoff.max_retries == 7
        assert ReliabilityPolicy.from_cli().deadline_s == math.inf

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError):
            ReliabilityPolicy(deadline_s=0.0)

    def test_build_shares_clock_and_metrics(self, clock, sleeper):
        registry = MetricsRegistry()
        stack = ReliabilityPolicy(deadline_s=2.0).build(
            registry, clock=clock, sleep=sleeper
        )
        assert stack.breaker.clock is clock
        deadline = stack.deadline()
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        stack.observe_deadline(deadline)
        from repro.reliability.policy import DEADLINE_REMAINING_BUCKETS

        histogram = registry.histogram(
            "reliability.deadline_remaining_s", DEADLINE_REMAINING_BUCKETS
        )
        assert histogram.count == 1

    def test_injected_fault_plan_example(self, chaos_seed):
        # The docstring example plan parses and validates.
        plan = FaultPlan.from_json(
            '{"seed": %d, "rules": [{"site": "serving.predict",'
            ' "kind": "error", "probability": 0.2}]}' % chaos_seed
        )
        assert plan.rules[0].probability == pytest.approx(0.2)
