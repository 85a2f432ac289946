"""Unit tests for the supervised attempt loop behind both shard backends.

:func:`repro.runtime.parallel._run_attempt` drives one shard attempt and
:meth:`FailureContext.run_shard` is the retry / degrade / fail-fast loop
around it.  Both are plain functions over an injectable ``clock`` and
``sleep``, so every scenario here runs against a fake clock and never
waits: a hang "passes time" only through the injected ``sleep``.
"""

import threading

import pytest

import repro.runtime.parallel as parallel_module
from repro.core.thresholds import Thresholds
from repro.runtime.config import RunConfig
from repro.runtime.errors import ShardExecutionError, ShardTimeoutError
from repro.runtime.events import ShardEvent, ShardFailed, ShardRetrying
from repro.runtime.failures import DegradePolicy, FailFastPolicy, RetryPolicy
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFaultError
from repro.runtime.parallel import (
    AggregatedEventBus,
    FailureContext,
    _run_attempt,
)
from repro.runtime.session import JoinSession
from repro.runtime.sharding import ShardPlan

FAST = RunConfig.from_thresholds(Thresholds(delta_adapt=25, window_size=25))


class FakeTime:
    """A clock whose time moves only when ``sleep`` is called."""

    def __init__(self, on_sleep=None):
        self.now = 0.0
        self.slept = []
        self._on_sleep = on_sleep

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds
        if self._on_sleep is not None:
            self._on_sleep(self)


@pytest.fixture
def plan(small_dataset):
    return ShardPlan.build(
        small_dataset.parent, small_dataset.child, "location", 3, "hash",
        config=FAST,
    )


def _attempt(plan, shard_id=1, *, fault=None, timeout=None, cancel=None,
             time_source=None, attempt=1):
    time_source = time_source or FakeTime()
    left, right = plan.shard_streams(shard_id)
    return _run_attempt(
        left, right, plan.attribute, FAST, shard_id, attempt, None, cancel,
        timeout, fault, time_source.clock, time_source.sleep,
    )


def _unsupervised(plan, shard_id):
    """The shard's plain ``JoinSession.run()`` — the reference result."""
    return JoinSession(*plan.shard_streams(shard_id), plan.attribute, FAST).run()


def _full_steps(plan, shard_id):
    return len(plan.left_shards[shard_id]) + len(plan.right_shards[shard_id])


class TestRunAttempt:
    def test_clean_attempt_equals_the_unsupervised_run(self, plan):
        fake = FakeTime()
        result = _attempt(plan, timeout=60.0, time_source=fake)
        reference = _unsupervised(plan, 1)
        assert result.matched_pairs() == reference.matched_pairs()
        assert result.trace.summary() == reference.trace.summary()
        assert not result.cancelled
        assert fake.slept == []

    def test_clean_attempt_batches_like_the_unsupervised_run(
        self, plan, monkeypatch
    ):
        """No fault and no timeout: uncapped batches, exactly as
        ``JoinSession.run()`` drives them — same batch boundaries, same
        matches, counters and trace."""
        caps = []
        run_batches = JoinSession.run_batches

        def spy(self, max_batch=None, cancel=None):
            caps.append(max_batch)
            return run_batches(self, max_batch=max_batch, cancel=cancel)

        monkeypatch.setattr(JoinSession, "run_batches", spy)
        result = _attempt(plan)
        reference = _unsupervised(plan, 1)
        assert caps == [None, None]
        assert result.matches == reference.matches
        assert result.counters.as_dict() == reference.counters.as_dict()
        assert result.trace.summary() == reference.trace.summary()
        _attempt(plan, timeout=60.0)
        assert caps[-1] == parallel_module._SUPERVISED_BATCH

    def test_failure_before_the_first_batch(self, plan):
        fault = FaultSpec(shard_id=1, kind="fail", after_batches=0)
        with pytest.raises(ShardExecutionError) as excinfo:
            _attempt(plan, fault=fault, attempt=2)
        assert excinfo.value.shard_id == 1
        assert excinfo.value.attempt == 2
        assert excinfo.value.batches == 0
        assert isinstance(excinfo.value.__cause__, InjectedFaultError)

    @pytest.mark.parametrize("after_batches", [1, 2, 3])
    def test_failure_after_n_batches_reports_n(self, plan, after_batches):
        fault = FaultSpec(shard_id=1, kind="fail", after_batches=after_batches)
        with pytest.raises(ShardExecutionError) as excinfo:
            _attempt(plan, fault=fault)
        assert excinfo.value.batches == after_batches
        assert "InjectedFaultError" in excinfo.value.message

    def test_hang_polls_through_the_injected_sleep_until_the_deadline(
        self, plan
    ):
        fake = FakeTime()
        fault = FaultSpec(shard_id=1, kind="hang", after_batches=0)
        with pytest.raises(ShardTimeoutError) as excinfo:
            _attempt(plan, fault=fault, timeout=0.1, time_source=fake)
        assert excinfo.value.batches == 0
        assert excinfo.value.timeout_seconds == 0.1
        # Every poll went through the injected sleep at the poll interval,
        # and the loop stopped as soon as the fake clock passed 0.1 s.
        assert set(fake.slept) == {parallel_module._HANG_POLL_SECONDS}
        assert fake.now >= 0.1
        assert fake.now - parallel_module._HANG_POLL_SECONDS < 0.1

    def test_hang_released_by_the_callers_token_returns_a_partial(self, plan):
        cancel = threading.Event()

        def release(fake):
            if len(fake.slept) == 3:
                cancel.set()

        fake = FakeTime(on_sleep=release)
        fault = FaultSpec(shard_id=1, kind="hang", after_batches=1)
        result = _attempt(plan, fault=fault, cancel=cancel, time_source=fake)
        assert result.cancelled
        assert len(fake.slept) == 3
        assert 0 < result.trace.total_steps < _full_steps(plan, 1)

    def test_caller_cancel_under_a_timeout_is_not_a_timeout(self, plan):
        cancel = threading.Event()
        cancel.set()
        result = _attempt(plan, timeout=60.0, cancel=cancel)
        assert result.cancelled
        assert result.never_ran

    def test_slow_shard_times_out_at_a_batch_boundary(self, plan):
        """No fault at all: the deadline alone stops an attempt whose
        clock runs past it, after the batches that fit."""
        fake = FakeTime()
        ticks = iter(range(1_000_000))

        def clock():
            # The deadline is read once at start (t = 0), then every
            # boundary check advances one second.
            return float(next(ticks))

        left, right = plan.shard_streams(1)
        with pytest.raises(ShardTimeoutError) as excinfo:
            _run_attempt(
                left, right, plan.attribute, FAST, 1, 1, None, None,
                3.0, None, clock, fake.sleep,
            )
        assert excinfo.value.batches >= 1
        assert fake.slept == []

    def test_session_errors_are_wrapped_with_their_type(
        self, plan, monkeypatch
    ):
        def broken_session(*args, **kwargs):
            raise LookupError("no such attribute")

        monkeypatch.setattr(parallel_module, "JoinSession", broken_session)
        with pytest.raises(ShardExecutionError) as excinfo:
            _attempt(plan, attempt=3)
        assert excinfo.value.attempt == 3
        assert excinfo.value.batches == 0
        assert excinfo.value.message == "LookupError: no such attribute"
        assert isinstance(excinfo.value.__cause__, LookupError)


def _context(plan, *, policy=None, faults=None, bus=None, fake=None):
    fake = fake or FakeTime()
    return FailureContext(
        plan, FAST, bus, policy or FailFastPolicy(), faults=faults,
        clock=fake.clock, sleep=fake.sleep,
    ), fake


class TestFailureContextRunShard:
    def test_clean_shard_returns_its_outcome_without_sleeping(self, plan):
        ctx, fake = _context(plan)
        outcome = ctx.run_shard(2)
        assert outcome.shard_id == 2
        assert outcome.left_origins == plan.left_shards[2].origins
        assert outcome.right_origins == plan.right_shards[2].origins
        assert fake.slept == []
        assert ctx.failure_records() == ()

    def test_every_attempt_runs_through_run_attempt(self, plan, monkeypatch):
        """One attempt path: the faulted attempt and its clean retry both
        go through ``_run_attempt``; only the faulted one is supervised."""
        attempts = []
        original = parallel_module._run_attempt

        def spy(*args, **kwargs):
            # (attempt, timeout, fault) of each call.
            attempts.append((args[5], args[8], args[9]))
            return original(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "_run_attempt", spy)
        ctx, _ = _context(
            plan,
            policy=RetryPolicy(max_attempts=2),
            faults=FaultPlan.crash(0, attempts=(1,)),
        )
        outcome = ctx.run_shard(0)
        assert outcome is not None and not outcome.result.cancelled
        assert [(attempt, timeout) for attempt, timeout, _ in attempts] == [
            (1, None),
            (2, None),
        ]
        assert attempts[0][2] is not None and attempts[1][2] is None
        assert outcome.result.matches == _unsupervised(plan, 0).matches

    def test_a_timeout_supervises_every_attempt(self, plan, monkeypatch):
        """A policy timeout reaches a fault-free attempt, which then runs
        in capped, deadline-checked batches."""
        attempts = []
        caps = []
        original = parallel_module._run_attempt
        run_batches = JoinSession.run_batches

        def spy_attempt(*args, **kwargs):
            # (timeout, fault) of each call.
            attempts.append((args[8], args[9]))
            return original(*args, **kwargs)

        def spy_batches(self, max_batch=None, cancel=None):
            caps.append(max_batch)
            return run_batches(self, max_batch=max_batch, cancel=cancel)

        monkeypatch.setattr(parallel_module, "_run_attempt", spy_attempt)
        monkeypatch.setattr(JoinSession, "run_batches", spy_batches)
        ctx, _ = _context(plan, policy=FailFastPolicy(shard_timeout_seconds=60))
        outcome = ctx.run_shard(0)
        assert attempts == [(60, None)]
        assert caps == [parallel_module._SUPERVISED_BATCH]
        monkeypatch.setattr(JoinSession, "run_batches", run_batches)
        reference = _unsupervised(plan, 0)
        assert outcome.result.matched_pairs() == reference.matched_pairs()

    def test_a_clean_attempt_failing_mid_run_records_its_batches(
        self, plan, monkeypatch
    ):
        """A session error on a clean attempt reports the batches it ran."""
        run_batches = JoinSession.run_batches

        def fail_after_two(self, max_batch=None, cancel=None):
            for count, batch in enumerate(
                run_batches(self, max_batch=max_batch, cancel=cancel), 1
            ):
                yield batch
                if count == 2:
                    raise RuntimeError("engine fault")

        monkeypatch.setattr(JoinSession, "run_batches", fail_after_two)
        ctx, _ = _context(plan, policy=DegradePolicy(max_attempts=1))
        assert ctx.run_shard(1) is None
        (record,) = ctx.failure_records()
        assert record.batches == 2
        assert record.error_type == "RuntimeError"

    def test_retries_sleep_the_backoff_and_publish_each_step(self, plan):
        bus = AggregatedEventBus()
        seen = []
        bus.subscribe(ShardFailed, seen.append)
        bus.subscribe(ShardRetrying, seen.append)
        ctx, fake = _context(
            plan,
            policy=RetryPolicy(
                max_attempts=4, backoff_seconds=0.25, backoff_multiplier=2.0
            ),
            faults=FaultPlan.crash(1, attempts=(1, 2, 3)),
            bus=bus,
        )
        outcome = ctx.run_shard(1)
        assert outcome is not None
        assert fake.slept == [0.25, 0.5, 1.0]
        assert [
            (type(event).__name__, getattr(event, "attempt", None)
             or event.next_attempt)
            for event in seen
        ] == [
            ("ShardFailed", 1), ("ShardRetrying", 2),
            ("ShardFailed", 2), ("ShardRetrying", 3),
            ("ShardFailed", 3), ("ShardRetrying", 4),
        ]
        assert [
            event.delay_seconds for event in seen
            if isinstance(event, ShardRetrying)
        ] == fake.slept

    def test_zero_backoff_retries_without_sleeping(self, plan):
        ctx, fake = _context(
            plan,
            policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
            faults=FaultPlan.crash(1, attempts=(1,)),
        )
        assert ctx.run_shard(1) is not None
        assert fake.slept == []

    def test_fail_fast_raises_the_first_failure(self, plan):
        ctx, fake = _context(plan, faults=FaultPlan.crash(1, attempts=None))
        with pytest.raises(ShardExecutionError) as excinfo:
            ctx.run_shard(1)
        assert excinfo.value.attempt == 1
        assert isinstance(excinfo.value.__cause__, InjectedFaultError)
        assert fake.slept == []
        assert ctx.failure_records() == ()

    def test_degrade_drops_after_the_last_attempt_and_records_it(self, plan):
        ctx, fake = _context(
            plan,
            policy=DegradePolicy(max_attempts=2, backoff_seconds=0.1),
            faults=FaultPlan.crash(1, attempts=None, after_batches=1),
        )
        assert ctx.run_shard(1) is None
        assert fake.slept == [0.1]
        (record,) = ctx.failure_records()
        assert record.shard_id == 1
        assert record.attempts == 2
        assert record.error_type == "InjectedFaultError"
        assert record.batches == 1
        assert not record.timed_out
        assert record.left_records == len(plan.left_shards[1])
        assert record.right_records == len(plan.right_shards[1])

    def test_degrade_records_a_timeout(self, plan):
        ctx, _ = _context(
            plan,
            policy=DegradePolicy(shard_timeout_seconds=0.1),
            faults=FaultPlan.hang(2, attempts=None),
        )
        assert ctx.run_shard(2) is None
        (record,) = ctx.failure_records()
        assert record.shard_id == 2 and record.timed_out

    def test_a_set_token_skips_the_shard(self, plan):
        cancel = threading.Event()
        cancel.set()
        ctx, _ = _context(plan)
        assert ctx.run_shard(0, cancel) is None

    def test_no_retry_once_the_caller_cancelled(self, plan, monkeypatch):
        """A failure observed after cancellation is final, not retried."""
        cancel = threading.Event()
        bus = AggregatedEventBus()
        failed = []
        bus.subscribe(ShardFailed, failed.append)

        def cancel_then_fail(*args, **kwargs):
            cancel.set()
            raise InjectedFaultError("failure racing a cancel")

        ctx, fake = _context(
            plan,
            policy=RetryPolicy(max_attempts=5, backoff_seconds=1.0),
            faults=FaultPlan.crash(0, attempts=(1,)),
            bus=bus,
        )
        monkeypatch.setattr(parallel_module, "_run_attempt", cancel_then_fail)
        with pytest.raises(ShardExecutionError) as excinfo:
            ctx.run_shard(0, cancel)
        assert excinfo.value.attempt == 1
        assert [event.will_retry for event in failed] == [False]
        assert fake.slept == []

    def test_supervised_events_are_tagged_with_the_shard(self, plan):
        bus = AggregatedEventBus()
        tagged = []
        bus.subscribe(ShardEvent, tagged.append)
        ctx, _ = _context(
            plan,
            policy=RetryPolicy(max_attempts=2),
            faults=FaultPlan.crash(2, attempts=(1,), after_batches=1),
            bus=bus,
        )
        outcome = ctx.run_shard(2)
        steps = [
            event for event in tagged
            if type(event.event).__name__ == "StepResult"
        ]
        assert {event.shard_id for event in tagged} == {2}
        # One batch of the failed attempt, then the whole retried attempt.
        assert len(steps) > outcome.result.trace.total_steps
