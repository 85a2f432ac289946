"""Tests for the failure-semantics layer: policies, retries, timeouts, degrade.

Every scenario here is driven by the deterministic fault-injection
harness (:mod:`repro.runtime.faults`), so the same misbehaviour replays
identically on both backends.
"""

import pickle

import pytest

from repro.core.thresholds import Thresholds
from repro.runtime.collectors import ProgressCollector
from repro.runtime.config import RunConfig
from repro.runtime.errors import (
    ShardError,
    ShardExecutionError,
    ShardTimeoutError,
)
from repro.runtime.events import ShardFailed, ShardRetrying
from repro.runtime.failures import (
    DegradePolicy,
    FailFastPolicy,
    FailurePolicy,
    RetryPolicy,
    available_failure_policies,
    create_failure_policy,
)
from repro.runtime.faults import FaultPlan, InjectedFaultError
from repro.runtime.parallel import (
    AggregatedEventBus,
    ParallelExecutor,
    run_sharded,
)
from repro.runtime.sharding import ShardPlan

ALL_BACKENDS = ("serial", "process")

FAST = RunConfig.from_thresholds(Thresholds(delta_adapt=25, window_size=25))


def _baseline(dataset, shards=3, backend="serial"):
    return run_sharded(
        dataset.parent, dataset.child, "location", FAST,
        shards=shards, backend=backend,
    )


def _identical(result, reference):
    assert result.pair_set() == reference.pair_set()
    assert result.matched_pairs() == reference.matched_pairs()
    assert result.result_size == reference.result_size
    assert {s: st.label for s, st in result.final_states.items()} == {
        s: st.label for s, st in reference.final_states.items()
    }


class TestPolicyRegistry:
    def test_builtin_policies_registered(self):
        assert available_failure_policies() == ("degrade", "fail-fast", "retry")

    def test_create_by_name_none_and_instance(self):
        assert isinstance(create_failure_policy(None), FailFastPolicy)
        assert isinstance(create_failure_policy("retry"), RetryPolicy)
        policy = DegradePolicy(max_attempts=2)
        assert create_failure_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="retry"):
            create_failure_policy("explode")

    def test_options_with_instance_rejected(self):
        with pytest.raises(ValueError, match="already-constructed"):
            create_failure_policy(RetryPolicy(), max_attempts=5)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0)
        with pytest.raises(ValueError):
            FailFastPolicy(shard_timeout_seconds=0)

    def test_backoff_is_deterministic_exponential(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_seconds=0.5, backoff_multiplier=3.0
        )
        assert policy.backoff_delay(1) == 0.5
        assert policy.backoff_delay(2) == 1.5
        assert policy.backoff_delay(3) == 4.5
        assert RetryPolicy().backoff_delay(1) == 0.0

    def test_should_retry_counts_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_describe(self):
        assert "retry" in RetryPolicy(max_attempts=2).describe()
        assert "timeout" in FailFastPolicy(shard_timeout_seconds=1.0).describe()

    def test_custom_policies_register(self):
        from repro.runtime.failures import register_failure_policy

        @register_failure_policy("test-custom")
        class CustomPolicy(FailurePolicy):
            pass

        try:
            assert "test-custom" in available_failure_policies()
            assert isinstance(
                create_failure_policy("test-custom"), CustomPolicy
            )
        finally:
            from repro.runtime import failures

            del failures._FAILURE_POLICIES["test-custom"]


class TestStructuredErrors:
    def test_shard_execution_error_message_and_fields(self):
        error = ShardExecutionError(3, 2, 5, "ValueError: boom")
        assert error.shard_id == 3
        assert error.attempt == 2
        assert error.batches == 5
        assert "shard 3 failed on attempt 2 after 5 engine batch(es)" in str(error)
        assert "ValueError: boom" in str(error)

    def test_errors_are_runtime_errors(self):
        # Compatibility pin: pre-existing callers catch RuntimeError.
        assert issubclass(ShardError, RuntimeError)
        assert issubclass(ShardExecutionError, ShardError)
        assert issubclass(ShardTimeoutError, ShardExecutionError)

    def test_timeout_error_default_message(self):
        error = ShardTimeoutError(1, 1, 7, 0.5)
        assert "timed out" in str(error)
        assert "0.5" in str(error)
        assert error.timeout_seconds == 0.5

    def test_errors_pickle_roundtrip(self):
        # The process backend ships these across the worker boundary.
        error = pickle.loads(pickle.dumps(ShardExecutionError(2, 3, 4, "x")))
        assert (error.shard_id, error.attempt, error.batches) == (2, 3, 4)
        timeout = pickle.loads(pickle.dumps(ShardTimeoutError(1, 2, 3, 0.25)))
        assert timeout.timeout_seconds == 0.25
        assert isinstance(timeout, ShardTimeoutError)

    def test_cause_is_preserved_in_process(self):
        original = ValueError("boom")
        try:
            try:
                raise original
            except ValueError as inner:
                raise ShardExecutionError(0, 1, 0, "ValueError: boom") from inner
        except ShardExecutionError as wrapped:
            assert wrapped.__cause__ is original


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestRetryAcrossBackends:
    def test_retry_clears_fault_bit_identical(self, small_dataset, backend):
        reference = _baseline(small_dataset)
        result = run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend=backend,
            failure_policy=RetryPolicy(max_attempts=3),
            faults=FaultPlan.crash(1, attempts=(1, 2)),
        )
        _identical(result, reference)
        assert not result.degraded
        assert result.failed_shards == ()

    def test_exhausted_retries_escalate_to_failure(self, small_dataset, backend):
        with pytest.raises(ShardExecutionError) as excinfo:
            run_sharded(
                small_dataset.parent, small_dataset.child, "location", FAST,
                shards=3, backend=backend,
                failure_policy=RetryPolicy(max_attempts=2),
                faults=FaultPlan.crash(1, attempts=None),
            )
        assert excinfo.value.shard_id == 1
        assert excinfo.value.attempt == 2


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestDegradeAcrossBackends:
    def test_degrade_drops_and_accounts(self, small_dataset, backend):
        result = run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend=backend,
            failure_policy=DegradePolicy(),
            faults=FaultPlan.crash(1, attempts=None),
        )
        assert result.degraded
        assert [f.shard_id for f in result.failed_shards] == [1]
        failure = result.failed_shards[0]
        assert failure.error_type == "InjectedFaultError"
        assert failure.attempts == 1
        assert failure.left_records > 0 and failure.right_records > 0
        assert "shard 1" in failure.describe()
        left_cov, right_cov = result.coverage()
        assert 0.0 < left_cov < 1.0 and 0.0 < right_cov < 1.0
        assert 0.0 < result.estimated_recall() < 1.0
        assert [outcome.shard_id for outcome in result.shards] == [0, 2]

    def test_degraded_equals_run_restricted_to_survivors(
        self, small_dataset, backend
    ):
        degraded = run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend=backend,
            failure_policy=DegradePolicy(),
            faults=FaultPlan.crash(1, attempts=None),
        )
        plan = ShardPlan.build(
            small_dataset.parent, small_dataset.child, "location", 3, "hash",
            config=FAST,
        )
        survivors = ParallelExecutor(backend="serial").run(
            plan.subset([0, 2]), FAST
        )
        assert degraded.pair_set() == survivors.pair_set()

    def test_degrade_after_retries(self, small_dataset, backend):
        reference = _baseline(small_dataset)
        # Fault clears on attempt 3, policy allows 3 attempts: no loss.
        result = run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend=backend,
            failure_policy=DegradePolicy(max_attempts=3),
            faults=FaultPlan.crash(1, attempts=(1, 2)),
        )
        assert not result.degraded
        _identical(result, reference)


class TestNoFailureAccountingOnCleanRuns:
    def test_clean_run_reports_full_coverage(self, small_dataset):
        result = _baseline(small_dataset)
        assert not result.degraded
        assert result.coverage() == (1.0, 1.0)
        assert result.estimated_recall() == 1.0
        assert result.failed_shard_summary() == []


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestTimeoutsAcrossBackends:
    def test_hung_shard_times_out_fail_fast(self, small_dataset, backend):
        with pytest.raises(ShardTimeoutError) as excinfo:
            run_sharded(
                small_dataset.parent, small_dataset.child, "location", FAST,
                shards=3, backend=backend,
                failure_policy=FailFastPolicy(shard_timeout_seconds=0.25),
                faults=FaultPlan.hang(1, attempts=None),
            )
        assert excinfo.value.shard_id == 1

    def test_hung_shard_dropped_under_degrade(self, small_dataset, backend):
        result = run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend=backend,
            failure_policy=DegradePolicy(shard_timeout_seconds=0.25),
            faults=FaultPlan.hang(1, attempts=None),
        )
        assert result.degraded
        failure = result.failed_shards[0]
        assert failure.shard_id == 1
        assert failure.timed_out
        assert "timed out" in failure.describe()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_fail_fast_pins_lowest_shard_id(small_dataset, backend):
    """Two concurrent failures surface deterministically: lowest id wins."""
    with pytest.raises(ShardExecutionError) as excinfo:
        run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend=backend,
            faults=FaultPlan.crash(2, attempts=None)
            + FaultPlan.crash(1, attempts=None),
        )
    assert excinfo.value.shard_id == 1
    assert isinstance(excinfo.value.__cause__, InjectedFaultError) or (
        backend == "process"  # __cause__ does not survive the boundary
    )


def test_fail_after_batches_counts_engine_batches(small_dataset):
    with pytest.raises(ShardExecutionError) as excinfo:
        run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend="serial",
            faults=FaultPlan.crash(1, attempts=None, after_batches=2),
        )
    assert excinfo.value.batches == 2


class TestDeterministicBackoff:
    def test_backoff_uses_injected_clock_and_sleep(self, small_dataset):
        slept = []
        executor = ParallelExecutor(
            backend="serial",
            failure_policy=RetryPolicy(
                max_attempts=3, backoff_seconds=0.5, backoff_multiplier=3.0
            ),
            faults=FaultPlan.crash(1, attempts=(1, 2)),
            sleep=slept.append,
        )
        plan = ShardPlan.build(
            small_dataset.parent, small_dataset.child, "location", 3, "hash",
            config=FAST,
        )
        result = executor.run(plan, FAST)
        assert not result.degraded
        # One deterministic exponential delay per retry, via the injected
        # sleep — the test itself never waits.
        assert slept == [0.5, 1.5]

    def test_happy_path_never_sleeps(self, small_dataset):
        slept = []
        executor = ParallelExecutor(
            backend="serial",
            failure_policy=RetryPolicy(max_attempts=3, backoff_seconds=9.0),
            sleep=slept.append,
        )
        plan = ShardPlan.build(
            small_dataset.parent, small_dataset.child, "location", 3, "hash",
            config=FAST,
        )
        executor.run(plan, FAST)
        assert slept == []


class TestFailureEvents:
    def test_retry_publishes_failed_and_retrying(self, small_dataset):
        bus = AggregatedEventBus()
        failed, retrying = [], []
        bus.subscribe(ShardFailed, failed.append)
        bus.subscribe(ShardRetrying, retrying.append)
        run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend="serial", bus=bus,
            failure_policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
            faults=FaultPlan.crash(1, attempts=(1,)),
        )
        assert len(failed) == 1
        assert failed[0].shard_id == 1
        assert failed[0].attempt == 1
        assert failed[0].will_retry
        assert isinstance(failed[0].error, ShardExecutionError)
        assert len(retrying) == 1
        assert retrying[0].next_attempt == 2
        assert retrying[0].delay_seconds == 0.0

    def test_terminal_failure_flagged_not_retrying(self, small_dataset):
        bus = AggregatedEventBus()
        failed = []
        bus.subscribe(ShardFailed, failed.append)
        run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend="serial", bus=bus,
            failure_policy=DegradePolicy(),
            faults=FaultPlan.crash(1, attempts=None),
        )
        assert [event.will_retry for event in failed] == [False]

    def test_progress_collector_counts_retries_and_failures(self, small_dataset):
        bus = AggregatedEventBus()
        progress = ProgressCollector(total_shards=3).attach(bus)
        run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend="serial", bus=bus,
            failure_policy=DegradePolicy(max_attempts=2),
            faults=FaultPlan.crash(1, attempts=None),
        )
        snapshot = progress.snapshot()
        assert snapshot.retries == 1
        assert snapshot.shards_failed == 1
        assert progress.shards_failed == 1
        assert "1 retries" in snapshot.describe()
        assert "1 shards FAILED" in snapshot.describe()

    def test_clean_snapshot_mentions_no_failures(self, small_dataset):
        bus = AggregatedEventBus()
        progress = ProgressCollector(total_shards=3).attach(bus)
        run_sharded(
            small_dataset.parent, small_dataset.child, "location", FAST,
            shards=3, backend="serial", bus=bus,
        )
        line = progress.snapshot().describe()
        assert "retries" not in line
        assert "FAILED" not in line


def test_failure_policy_validated_at_executor_construction():
    with pytest.raises(ValueError, match="unknown failure policy"):
        ParallelExecutor(backend="serial", failure_policy="explode")
