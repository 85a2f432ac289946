"""Tests for job-level failure handling and resumable jobs.

Builder knobs (``on_failure`` / ``inject_faults``), the handle's routing
of failure-configured runs through the sharded layer, degraded-run
statistics, and ``JobHandle.resume()`` — which re-runs only the shards a
previous run did not complete and must merge bit-identically to a
failure-free run.
"""

import pytest

from repro.core.thresholds import Thresholds
from repro.jobs import LinkageJob
from repro.runtime.errors import ShardExecutionError
from repro.runtime.failures import DegradePolicy, RetryPolicy
from repro.runtime.faults import FaultPlan

FAST = Thresholds(delta_adapt=25, window_size=25)

ALL_BACKENDS = ("serial", "process")


def _job(dataset, **sharded):
    job = (
        LinkageJob.between(dataset.parent, dataset.child)
        .on("location")
        .thresholds(FAST)
    )
    if sharded:
        job.sharded(**sharded)
    return job


def _reference_pairs(dataset):
    return _job(dataset, shards=3).build().run().pairs


class TestBuilderFailureKnobs:
    def test_on_failure_by_name_with_options(self, small_dataset):
        job = _job(small_dataset).on_failure(
            "retry", retries=2, backoff_seconds=0.5, shard_timeout=4.0
        )
        policy = job._failure_policy
        assert isinstance(policy, RetryPolicy)
        # retries = re-runs after the first failure, so total attempts
        # is retries + 1.
        assert policy.max_attempts == 3
        assert policy.backoff_seconds == 0.5
        assert policy.shard_timeout_seconds == 4.0

    def test_on_failure_accepts_instance(self, small_dataset):
        policy = DegradePolicy(max_attempts=2)
        job = _job(small_dataset).on_failure(policy)
        assert job._failure_policy is policy

    def test_instance_with_options_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="not both"):
            _job(small_dataset).on_failure(RetryPolicy(), retries=2)

    def test_fail_fast_rejects_retry_knobs(self, small_dataset):
        with pytest.raises(ValueError, match="fail-fast"):
            _job(small_dataset).on_failure("fail-fast", retries=1)
        with pytest.raises(ValueError, match="fail-fast"):
            _job(small_dataset).on_failure(backoff_seconds=1.0)

    def test_fail_fast_accepts_timeout(self, small_dataset):
        job = _job(small_dataset).on_failure("fail-fast", shard_timeout=2.0)
        assert job._failure_policy.shard_timeout_seconds == 2.0

    def test_unknown_policy_and_negative_retries_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="unknown failure policy"):
            _job(small_dataset).on_failure("explode")
        with pytest.raises(ValueError, match="retries"):
            _job(small_dataset).on_failure("retry", retries=-1)

    def test_inject_faults_requires_a_plan(self, small_dataset):
        with pytest.raises(ValueError, match="FaultPlan"):
            _job(small_dataset).inject_faults("crash everything")

    def test_failure_knobs_are_adaptive_only(self, small_dataset):
        with pytest.raises(ValueError, match="adaptive"):
            (
                _job(small_dataset)
                .strategy("exact")
                .on_failure("retry")
                .build()
            )
        with pytest.raises(ValueError, match="adaptive"):
            (
                _job(small_dataset)
                .strategy("blocking")
                .inject_faults(FaultPlan.crash(0))
                .build()
            )

    def test_empty_fault_plan_is_a_no_op(self, small_dataset):
        job = _job(small_dataset).inject_faults(FaultPlan.none())
        assert job._faults is None
        # ...and therefore still builds for baseline strategies.
        job.strategy("exact").build()


class TestFailureConfiguredRuns:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_retry_run_matches_failure_free(self, small_dataset, backend):
        result = (
            _job(small_dataset, shards=3, backend=backend)
            .on_failure("retry", retries=2)
            .inject_faults(FaultPlan.crash(1, attempts=(1, 2)))
            .build()
            .run()
        )
        assert result.pairs == _reference_pairs(small_dataset)
        assert "degraded" not in result.statistics

    def test_degraded_run_statistics_are_honest(self, small_dataset):
        result = (
            _job(small_dataset, shards=3, backend="process")
            .on_failure("degrade")
            .inject_faults(FaultPlan.crash(1, attempts=None))
            .build()
            .run()
        )
        statistics = result.statistics
        assert statistics["degraded"] is True
        assert [row["shard"] for row in statistics["failed_shards"]] == [1]
        assert statistics["failed_shards"][0]["error_type"] == (
            "InjectedFaultError"
        )
        assert 0.0 < statistics["estimated_recall"] < 1.0
        left_cov, right_cov = statistics["coverage"]
        assert 0.0 < left_cov < 1.0 and 0.0 < right_cov < 1.0

    def test_degrade_run_that_drops_every_shard_is_not_cancelled(
        self, small_dataset
    ):
        handle = (
            _job(small_dataset, shards=2, backend="serial")
            .on_failure("degrade")
            .inject_faults(
                FaultPlan.crash(0, attempts=None) + FaultPlan.crash(1, attempts=None)
            )
            .build()
        )
        result = handle.run()
        assert handle.state == "finished"
        assert result.cancelled is False
        assert result.statistics["degraded"] is True
        assert result.pairs == []

    def test_unsharded_job_with_failure_policy_runs_one_shard_plan(
        self, small_dataset
    ):
        reference = _job(small_dataset).build().run()
        result = (
            _job(small_dataset)
            .on_failure("retry", retries=1)
            .inject_faults(FaultPlan.crash(0, attempts=(1,)))
            .build()
            .run()
        )
        assert result.pairs == reference.pairs
        assert result.statistics["shards"] == 1

    def test_fail_fast_marks_handle_failed(self, small_dataset):
        handle = (
            _job(small_dataset, shards=3)
            .inject_faults(FaultPlan.crash(1))
            .build()
        )
        with pytest.raises(ShardExecutionError):
            handle.run()
        assert handle.state == "failed"
        with pytest.raises(RuntimeError, match="failed"):
            handle.result()

    def test_degraded_progress_reports_failed_shards(self, small_dataset):
        handle = (
            _job(small_dataset, shards=3)
            .on_failure("degrade")
            .inject_faults(FaultPlan.crash(1, attempts=None))
            .with_progress()
            .build()
        )
        handle.run()
        snapshot = handle.progress()
        assert snapshot.shards_failed == 1
        assert "1 shards FAILED" in snapshot.describe()


class TestResume:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_resume_after_degrade_is_bit_identical(self, small_dataset, backend):
        handle = (
            _job(small_dataset, shards=3, backend=backend)
            .on_failure("degrade")
            .inject_faults(FaultPlan.crash(1, attempts=None))
            .build()
        )
        degraded = handle.run()
        assert degraded.statistics["degraded"] is True
        resumed = handle.resume()
        assert resumed.pairs == _reference_pairs(small_dataset)
        assert resumed.statistics["resumed"] is True
        assert "degraded" not in resumed.statistics
        assert handle.state == "finished"

    def test_resume_after_fail_fast_reruns_missing_shards(self, small_dataset):
        handle = (
            _job(small_dataset, shards=3)
            .inject_faults(FaultPlan.crash(1))
            .build()
        )
        with pytest.raises(ShardExecutionError):
            handle.run()
        resumed = handle.resume()
        assert resumed.pairs == _reference_pairs(small_dataset)
        assert handle.state == "finished"

    def test_resume_after_cancel_completes_the_run(self, small_dataset):
        handle = _job(small_dataset, shards=3).build()
        handle.cancel()
        partial = handle.run()
        assert partial.cancelled
        resumed = handle.resume()
        assert not resumed.cancelled
        assert resumed.pairs == _reference_pairs(small_dataset)

    def test_resume_on_complete_run_is_a_no_op(self, small_dataset):
        handle = _job(small_dataset, shards=3).build()
        result = handle.run()
        assert handle.resume() is result

    def test_resume_does_not_replay_the_fault_plan(self, small_dataset):
        handle = (
            _job(small_dataset, shards=3)
            .on_failure("degrade")
            # Irrecoverable under the original plan — but resume drops
            # the plan, so the re-run must succeed.
            .inject_faults(FaultPlan.crash(1, attempts=None))
            .build()
        )
        handle.run()
        resumed = handle.resume()
        assert "degraded" not in resumed.statistics

    def test_resume_accepts_a_fresh_fault_plan(self, small_dataset):
        handle = (
            _job(small_dataset, shards=3)
            .on_failure("degrade")
            .inject_faults(FaultPlan.crash(1, attempts=None))
            .build()
        )
        handle.run()
        still_degraded = handle.resume(faults=FaultPlan.crash(1, attempts=None))
        assert still_degraded.statistics["degraded"] is True
        # ...and a final clean resume completes the job.
        clean = handle.resume()
        assert clean.pairs == _reference_pairs(small_dataset)

    def test_resume_after_closed_stream(self, small_dataset):
        handle = _job(small_dataset, shards=3).build()
        stream = handle.stream_matches()
        next(stream)
        stream.close()
        assert handle.state == "cancelled"
        resumed = handle.resume()
        assert resumed.pairs == _reference_pairs(small_dataset)

    def test_unsharded_table_resume_reruns(self, small_dataset):
        handle = _job(small_dataset).build()
        handle.cancel()
        handle.run()
        resumed = handle.resume()
        assert resumed.pairs == _job(small_dataset).build().run().pairs
        assert resumed.statistics["resumed"] is True

    def test_unsharded_stream_inputs_cannot_resume(self, small_dataset):
        from repro.engine.streams import TableStream

        handle = (
            LinkageJob.between(
                TableStream(small_dataset.parent),
                TableStream(small_dataset.child),
            )
            .on("location")
            .thresholds(FAST)
            .build()
        )
        handle.cancel()
        handle.run()
        with pytest.raises(RuntimeError, match="consumed"):
            handle.resume()

    def test_resume_requires_a_finished_run(self, small_dataset):
        handle = _job(small_dataset, shards=3).build()
        with pytest.raises(RuntimeError, match="pending"):
            handle.resume()

    def test_resume_is_adaptive_only(self, small_dataset):
        handle = _job(small_dataset).strategy("exact").build()
        handle.run()
        with pytest.raises(ValueError, match="adaptive"):
            handle.resume()
