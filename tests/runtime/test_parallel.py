"""Tests for the parallel execution backends and the aggregated bus."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.state_machine import JoinState
from repro.core.thresholds import Thresholds
from repro.engine.streams import ListStream
from repro.engine.tuples import Record, Schema
from repro.joins.engine import StepBatch
from repro.runtime.collectors import ThroughputCollector
from repro.runtime.config import RunConfig
from repro.runtime.events import ShardCompleted, ShardEvent
from repro.runtime.failures import DegradePolicy, FailFastPolicy, RetryPolicy
from repro.runtime.faults import FaultPlan
from repro.runtime.handoff import live_block_count
from repro.runtime.parallel import (
    AggregatedEventBus,
    ParallelExecutor,
    _ensure_picklable,
    available_backends,
    run_sharded,
)
from repro.runtime.policy import SwitchPolicy, register_policy
from repro.runtime.sharding import ShardPlan


@register_policy("explode-on-bind")
class ExplodeOnBindPolicy(SwitchPolicy):
    """Failure injection for the backend tests: dies when a session binds it."""

    def bind(self, session) -> None:
        raise RuntimeError("injected shard failure (explode-on-bind)")

FAST = Thresholds(delta_adapt=25, window_size=25)

SCHEMA = Schema(["row_id", "location"], name="rows")


def _records(values):
    return [
        Record.from_values(SCHEMA, [index, value])
        for index, value in enumerate(values)
    ]


def _streams(values):
    return ListStream(SCHEMA, _records(values)), ListStream(
        SCHEMA, _records(values)
    )


class TestBackends:
    def test_serial_and_process_are_the_backends(self):
        assert available_backends() == ("process", "serial")

    @pytest.mark.parametrize("backend", ["gpu", "thread", "async"])
    def test_unknown_backend_rejected(self, backend):
        with pytest.raises(ValueError, match="serial"):
            ParallelExecutor(backend=backend)


class TestSerialBackend:
    def test_run_produces_shard_ordered_result(self, small_dataset):
        result = run_sharded(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            shards=3,
        )
        assert result.shard_count == 3
        assert [outcome.shard_id for outcome in result.shards] == [0, 1, 2]
        assert result.backend == "serial"
        assert result.partitioner == "hash"
        assert result.result_size == sum(
            outcome.result.result_size for outcome in result.shards
        )

    def test_shard_completed_events_in_shard_order(self, small_dataset):
        bus = AggregatedEventBus()
        completed = []
        bus.subscribe(ShardCompleted, completed.append)
        run_sharded(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            shards=3,
            bus=bus,
        )
        assert [event.shard_id for event in completed] == [0, 1, 2]
        assert all(event.result.result_size >= 0 for event in completed)

    def test_plan_is_reusable(self, small_dataset):
        plan = ShardPlan.build(
            small_dataset.parent, small_dataset.child, "location", 2
        )
        executor = ParallelExecutor()
        config = RunConfig.from_thresholds(FAST)
        first = executor.run(plan, config)
        second = executor.run(plan, config)
        assert first.pair_set() == second.pair_set()
        assert first.counters.as_dict() == second.counters.as_dict()


class TestAggregatedBus:
    def test_raw_events_reach_shard_agnostic_collectors(self, small_dataset):
        bus = AggregatedEventBus()
        collector = ThroughputCollector().attach(bus)
        result = run_sharded(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            shards=2,
            bus=bus,
        )
        assert collector.steps == result.trace.total_steps
        assert collector.matches == result.result_size

    def test_shard_events_are_tagged(self, small_dataset):
        bus = AggregatedEventBus()
        tagged = []
        bus.subscribe(ShardEvent, tagged.append)
        result = run_sharded(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            shards=2,
            bus=bus,
        )
        shard_ids = {event.shard_id for event in tagged}
        assert shard_ids == {0, 1}
        # A ShardEvent subscriber leaves every shard engine batched: the
        # forwarded batches cover each shard's steps contiguously, and
        # they are not batches of one.
        batches = [event for event in tagged if isinstance(event.event, StepBatch)]
        for shard_id in shard_ids:
            expected_next = 1
            for event in batches:
                if event.shard_id == shard_id:
                    assert event.event.first_step == expected_next
                    expected_next = event.event.last_step + 1
            assert expected_next > 1
        assert sum(event.event.count for event in batches) == (
            result.trace.total_steps
        )
        assert any(event.event.count > 1 for event in batches)

    def test_match_streams_stay_unobserved_without_subscribers(self):
        left, right = _streams(["a", "b", "a"])
        bus = AggregatedEventBus()
        batches = []
        bus.subscribe(StepBatch, batches.append)
        plan = ShardPlan.build(left, right, "location", 2)
        ParallelExecutor().run(plan, RunConfig(policy="fixed"), bus=bus)
        # Batches forwarded; no MatchEvent forwarders were attached, so
        # the engine's match channel stayed empty on every shard bus.
        assert sum(batch.count for batch in batches) == 6


class TestProcessBackend:
    def test_backend_matches_serial(self, small_dataset):
        config = RunConfig.from_thresholds(FAST)
        serial = run_sharded(
            small_dataset.parent, small_dataset.child, "location", config,
            shards=3, backend="serial",
        )
        other = run_sharded(
            small_dataset.parent, small_dataset.child, "location", config,
            shards=3, backend="process",
        )
        assert other.backend == "process"
        assert other.pair_set() == serial.pair_set()
        assert other.counters.as_dict() == serial.counters.as_dict()
        assert other.trace.summary() == serial.trace.summary()

    @pytest.mark.parametrize("handoff", ["pickle", "shared-memory"])
    def test_process_backend_runs_unpicklable_records_like_serial(self, handoff):
        """Only join keys cross the process boundary, so records no
        pickle can carry run on the process backend exactly as serially."""

        def poison():
            return None

        left = [
            Record(SCHEMA, {"row_id": poison, "location": "a"}),
            Record(SCHEMA, {"row_id": 1, "location": poison}),
        ]
        right = [
            Record.from_values(SCHEMA, [0, "a"]),
            Record(SCHEMA, {"row_id": poison, "location": poison}),
        ]
        plan = ShardPlan.build(
            ListStream(SCHEMA, left),
            ListStream(SCHEMA, right),
            "location",
            2,
            handoff=handoff,
        )
        assert plan.handoff == handoff
        config = RunConfig(policy="fixed")
        serial = ParallelExecutor().run(plan, config)
        process = ParallelExecutor(backend="process").run(plan, config)
        assert serial.pair_set() == {(0, 0), (1, 1)}
        assert process.matched_pairs() == serial.matched_pairs()
        assert process.counters.as_dict() == serial.counters.as_dict()
        assert process.output_records() == serial.output_records()
        assert live_block_count() == 0

    def test_ensure_picklable_names_the_offender(self):
        with pytest.raises(ValueError, match="the run configuration"):
            _ensure_picklable(lambda: None, "the run configuration (RunConfig)")

    def test_max_workers_cap_accepted(self, small_dataset):
        result = run_sharded(
            small_dataset.parent, small_dataset.child, "location",
            RunConfig.from_thresholds(FAST),
            shards=4, backend="process", max_workers=2,
        )
        assert result.shard_count == 4

    def test_shard_completed_events_in_shard_order(self, small_dataset):
        bus = AggregatedEventBus()
        completed = []
        bus.subscribe(ShardCompleted, completed.append)
        run_sharded(
            small_dataset.parent, small_dataset.child, "location",
            RunConfig.from_thresholds(FAST),
            shards=3, backend="process", bus=bus,
        )
        assert [event.shard_id for event in completed] == [0, 1, 2]


class TestShardFailurePropagation:
    """A failing shard surfaces its error promptly on every backend."""

    def test_serial_backend_raises_on_first_failing_shard(self, small_dataset):
        config = RunConfig.from_thresholds(FAST, policy="explode-on-bind")
        with pytest.raises(RuntimeError, match="injected shard failure"):
            run_sharded(
                small_dataset.parent, small_dataset.child, "location",
                config, shards=3, backend="serial",
            )

    def test_process_backend_surfaces_shard_failure(self, small_dataset):
        # Under the default fork start method the worker inherits the
        # test-registered policy and raises the injected RuntimeError; a
        # spawn/forkserver child re-imports the registry without it and
        # fails with the unknown-policy ValueError instead.  Either way
        # the first shard error must propagate out of the pool promptly.
        config = RunConfig.from_thresholds(FAST, policy="explode-on-bind")
        with pytest.raises(
            (RuntimeError, ValueError),
            match="injected shard failure|explode-on-bind",
        ):
            run_sharded(
                small_dataset.parent, small_dataset.child, "location",
                config, shards=3, backend="process", max_workers=2,
            )


class TestMidRunCancellation:
    """cancel tokens: partial results, cancelled flags, nothing dangling."""

    def test_cancel_between_shards_returns_partial_results(self, small_dataset):
        """Cancel fired from the live step stream: the in-flight shard
        stops at its next batch boundary, the queued shards are skipped,
        and the merged result carries what actually ran."""
        cancel = threading.Event()
        bus = AggregatedEventBus()
        steps = [0]

        def on_batch(batch):
            steps[0] += batch.count
            if steps[0] >= 100:  # mid shard 0 (each shard is ~200 steps)
                cancel.set()

        bus.subscribe(StepBatch, on_batch)
        result = run_sharded(
            small_dataset.parent, small_dataset.child, "location",
            RunConfig.from_thresholds(FAST),
            shards=4, bus=bus, cancel=cancel,
        )
        assert result.cancelled is True
        assert 1 <= result.shard_count < 4
        full = run_sharded(
            small_dataset.parent, small_dataset.child, "location",
            RunConfig.from_thresholds(FAST), shards=4,
        )
        assert result.result_size < full.result_size
        assert result.pair_set() <= full.pair_set()

    def test_serial_cancel_mid_shard_keeps_partial_shard(self, small_dataset):
        """Serial threads the token into the running session too."""
        cancel = threading.Event()
        bus = AggregatedEventBus()
        steps = [0]

        def on_batch(batch):
            steps[0] += batch.count
            if steps[0] >= 100:
                cancel.set()

        bus.subscribe(StepBatch, on_batch)
        result = run_sharded(
            small_dataset.parent, small_dataset.child, "location",
            RunConfig.from_thresholds(FAST),
            shards=2, backend="serial", bus=bus, cancel=cancel,
        )
        assert result.cancelled is True
        assert result.shard_count == 1
        assert result.shards[0].result.cancelled is True
        # Stopped at a batch boundary inside shard 0, partial kept.
        full_steps = len(small_dataset.parent) + len(small_dataset.child)
        assert 0 < result.trace.total_steps < full_steps

    def test_process_cancel_reaches_an_in_flight_worker(self, small_dataset):
        """The run's cancel flag carries the token into a worker: a shard
        hanging there is released long before its timeout, skipped, and
        the run returns."""
        token = threading.Event()
        threading.Timer(0.3, token.set).start()
        result = run_sharded(
            small_dataset.parent, small_dataset.child, "location",
            RunConfig.from_thresholds(FAST), shards=2, backend="process",
            cancel=token, faults=FaultPlan.hang(0, attempts=None),
            failure_policy=FailFastPolicy(shard_timeout_seconds=30.0),
        )
        assert result.cancelled is True
        assert [outcome.shard_id for outcome in result.shards] == [1]
        assert live_block_count() == 0

    def test_unset_token_changes_nothing(self, small_dataset):
        cancel = threading.Event()
        with_token = run_sharded(
            small_dataset.parent, small_dataset.child, "location",
            RunConfig.from_thresholds(FAST), shards=3, cancel=cancel,
        )
        without = run_sharded(
            small_dataset.parent, small_dataset.child, "location",
            RunConfig.from_thresholds(FAST), shards=3,
        )
        assert with_token.cancelled is False
        assert with_token.matched_pairs() == without.matched_pairs()
        assert with_token.counters.as_dict() == without.counters.as_dict()


def _kill_pool_workers_when_running():
    """SIGKILL every pool worker of this process once a pool is up."""
    deadline = time.monotonic() + 30
    while not multiprocessing.active_children():
        assert time.monotonic() < deadline, "no pool worker started"
        time.sleep(0.01)
    time.sleep(0.3)  # shard 0 hangs in its worker by now
    for worker in multiprocessing.active_children():
        os.kill(worker.pid, signal.SIGKILL)


class TestWorkerDeath:
    """A worker death loses every shard in flight on the pool; each runs
    again once, without counting as an attempt, so nothing is lost."""

    @pytest.mark.parametrize(
        "policy",
        [
            RetryPolicy(max_attempts=2, shard_timeout_seconds=1.0),
            DegradePolicy(max_attempts=2, shard_timeout_seconds=1.0),
        ],
        ids=["retry", "degrade"],
    )
    def test_a_killed_worker_loses_no_shard(self, small_dataset, policy):
        config = RunConfig.from_thresholds(FAST)
        plan = ShardPlan.build(
            small_dataset.parent, small_dataset.child, "location", 2, "hash",
            config=config,
        )
        reference = ParallelExecutor().run(plan, config)
        executor = ParallelExecutor(
            backend="process",
            failure_policy=policy,
            faults=FaultPlan.hang(0, attempts=(1,)),
        )
        outcome = {}

        def run():
            try:
                outcome["result"] = executor.run(plan, config)
            except BaseException as error:  # noqa: BLE001 - asserted below
                outcome["error"] = error

        runner = threading.Thread(target=run)
        runner.start()
        _kill_pool_workers_when_running()
        runner.join(60)
        assert not runner.is_alive()
        assert "error" not in outcome, repr(outcome.get("error"))
        merged = outcome["result"]
        assert merged.failed_shards == ()
        assert merged.matched_pairs() == reference.matched_pairs()
        assert live_block_count() == 0


class TestShardedResultSurface:
    def test_final_states_per_shard(self, small_dataset):
        result = run_sharded(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig(policy="fixed", initial_state=JoinState.LEX_REX),
            shards=2,
        )
        assert result.final_states == {
            0: JoinState.LEX_REX,
            1: JoinState.LEX_REX,
        }

    def test_per_shard_summary_rows(self, small_dataset):
        result = run_sharded(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            shards=2,
        )
        rows = result.per_shard_summary()
        assert [row["shard"] for row in rows] == [0, 1]
        assert sum(row["matches"] for row in rows) == result.result_size
        assert sum(row["total_steps"] for row in rows) == result.trace.total_steps

    def test_output_records_concatenate_shards(self, small_dataset):
        result = run_sharded(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            shards=2,
        )
        records = result.output_records()
        assert len(records) == result.result_size
        assert all(len(record.values) == len(result.output_schema) for record in records)

    def test_weighted_cost_sums_shards(self, small_dataset):
        from repro.core.cost_model import CostModel

        result = run_sharded(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            shards=2,
        )
        model = CostModel()
        assert result.weighted_cost(model) == pytest.approx(
            sum(
                model.absolute_cost(outcome.result.trace)
                for outcome in result.shards
            )
        )
