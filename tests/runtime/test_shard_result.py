"""Shard results as match columns: the rebuild oracle and the boundary.

A shard's result crosses every boundary — worker → parent, parent →
job store, store → restore — as :class:`ShardResult` columns, and its
:class:`MatchEvent`\\ s are rebuilt only when a caller asks.  These tests
pin the three promises that design rests on:

* the rebuilt events equal the live session's, field by field (both
  tuples' ``matched_exactly`` and the records included), on every
  partitioner × handoff, under ``deduplicate=False`` too, and for a
  cancelled partial shard;
* nothing a worker returns or a store writes unpickles into a
  ``MatchEvent``, ``StoredTuple`` or ``Record``;
* a process-backend ``run().pairs`` builds no event in the parent.
"""

from __future__ import annotations

import base64
import io
import json
import pickle
from array import array
from dataclasses import replace

import pytest

from repro.core.thresholds import Thresholds
from repro.jobs import LinkageJob, decode_shard_outcome, encode_shard_outcome
from repro.joins.base import MatchEvent
from repro.runtime.config import RunConfig
from repro.runtime.failures import create_failure_policy
from repro.runtime.handoff import live_block_count, shared_memory_available
from repro.runtime.parallel import (
    FailureContext,
    ParallelExecutor,
    _run_inline,
    _run_shard_task,
    _shard_task,
)
from repro.runtime.session import JoinSession
from repro.runtime.shard_result import ShardResult
from repro.runtime.sharding import FirstShardWins, ShardOutcome, ShardPlan
from repro.server.store import JsonlJobStore

FAST = Thresholds(delta_adapt=25, window_size=25)

HANDOFFS = [
    "pickle",
    pytest.param(
        "shared-memory",
        marks=pytest.mark.skipif(
            not shared_memory_available(),
            reason="no multiprocessing.shared_memory",
        ),
    ),
]

#: What must never cross a boundary inside a shard result.
_BANNED = {
    ("repro.joins.base", "MatchEvent"),
    ("repro.joins.base", "StoredTuple"),
    ("repro.engine.tuples", "Record"),
}


class _NoRecordsUnpickler(pickle.Unpickler):
    """Loads anything except match events, stored tuples and records."""

    def find_class(self, module, name):
        if (module, name) in _BANNED:
            raise pickle.UnpicklingError(f"{module}.{name} crossed the boundary")
        return super().find_class(module, name)


def _restricted_loads(blob: bytes):
    return _NoRecordsUnpickler(io.BytesIO(blob)).load()


def _config(deduplicate: bool = True) -> RunConfig:
    return replace(RunConfig.from_thresholds(FAST), deduplicate=deduplicate)


def _plan(dataset, partitioner, handoff, config, shards=3) -> ShardPlan:
    return ShardPlan.build(
        dataset.parent,
        dataset.child,
        "location",
        shards,
        partitioner,
        config=config,
        handoff=handoff,
    )


def _live(plan, shard_id, config, cancel=None):
    """The shard's events from a session run in this process (the oracle)."""
    left, right = plan.shard_streams(shard_id)
    session = JoinSession(left, right, plan.attribute, config)
    for _ in session.run_batches(cancel=cancel):
        pass
    return session.result()


def _assert_same_events(rebuilt, live):
    assert len(rebuilt) == len(live)
    for got, want in zip(rebuilt, live):
        for name in MatchEvent._fields:
            assert getattr(got, name) == getattr(want, name), name
        for side in ("left", "right"):
            got_tuple, want_tuple = getattr(got, side), getattr(want, side)
            assert got_tuple.matched_exactly == want_tuple.matched_exactly
            assert got_tuple.record.values == want_tuple.record.values
            assert got_tuple.value == want_tuple.value
            assert got_tuple.ordinal == want_tuple.ordinal
    assert rebuilt == live


class _TripAfter:
    """A cancel token that trips on its ``checks``-th poll."""

    def __init__(self, checks: int) -> None:
        self.checks = checks

    def is_set(self) -> bool:
        self.checks -= 1
        return self.checks < 0


class TestColumnsToEventsOracle:
    @pytest.mark.parametrize("deduplicate", [True, False])
    @pytest.mark.parametrize("handoff", HANDOFFS)
    @pytest.mark.parametrize("partitioner", ["hash", "gram-prefix"])
    def test_process_backend_rebuilds_the_session_events(
        self, small_dataset_both, partitioner, handoff, deduplicate
    ):
        config = _config(deduplicate)
        plan = _plan(small_dataset_both, partitioner, handoff, config)
        merged = ParallelExecutor(backend="process", max_workers=2).run(plan, config)
        assert [outcome.shard_id for outcome in merged.shards] == [0, 1, 2]
        total = 0
        for outcome in merged.shards:
            live = _live(plan, outcome.shard_id, config)
            _assert_same_events(outcome.result.matches, live.matches)
            assert outcome.result.counters == live.counters
            assert outcome.result.final_state is live.final_state
            total += len(live.matches)
        assert total > 0
        assert live_block_count() == 0

    def test_first_shard_wins_keeps_the_owners_repeats(self):
        owner = FirstShardWins()
        assert owner.owned([(1, 2), (3, 4)], 0) is None  # owns all: no copy
        assert owner.owned([(5, 6), (1, 2), (5, 6), (3, 4)], 1) == [0, 2]
        assert owner.owned([(1, 2), (1, 2)], 0) is None  # repeats stay

    def test_cancelled_partial_shard(self, small_dataset_both):
        config = _config()
        plan = _plan(small_dataset_both, "hash", "pickle", config)
        context = FailureContext(
            plan, config, None, create_failure_policy("fail-fast")
        )
        _, result, _ = _run_inline(context, 1, 1, _TripAfter(3)).result()
        outcome = ShardOutcome.of(plan, 1, result)
        live = _live(plan, 1, config, cancel=_TripAfter(3))
        assert outcome.result.cancelled and live.cancelled
        assert 0 < outcome.result.trace.total_steps < len(plan.left_shards[1]) + len(
            plan.right_shards[1]
        )
        _assert_same_events(outcome.result.matches, live.matches)

    def test_an_outcome_that_does_not_fit_the_plan_is_refused(self, small_dataset):
        config = _config()
        plan = _plan(small_dataset, "hash", "pickle", config)
        outcome = ParallelExecutor().run(plan, config).shards[0]
        decoded = decode_shard_outcome(encode_shard_outcome(outcome))
        assert decoded.fits(plan)
        assert not replace(decoded, shard_id=plan.shard_count).fits(plan)
        result = decoded.result
        too_far = ShardResult(
            array("i", [len(plan.left_shards[0])]), result.right[:1],
            result.similarity[:1], result.step[:1], result.flags[:1],
            result.counters, result.trace, result.final_state,
            result.output_schema,
        )
        assert not replace(decoded, result=too_far).fits(plan)
        ragged = ShardResult(
            result.left, result.right[:-1], result.similarity, result.step,
            result.flags, result.counters, result.trace, result.final_state,
            result.output_schema,
        )
        assert not replace(decoded, result=ragged).fits(plan)

    def test_decoded_outcome_rebinds_to_the_same_events(self, small_dataset):
        config = _config()
        plan = _plan(small_dataset, "gram-prefix", "pickle", config)
        merged = ParallelExecutor().run(plan, config)
        for outcome in merged.shards:
            decoded = decode_shard_outcome(encode_shard_outcome(outcome))
            with pytest.raises(RuntimeError, match="not bound"):
                decoded.result.matches
            assert decoded.fits(plan)
            bound = ShardOutcome.of(plan, decoded.shard_id, decoded.result)
            assert bound.matched_pairs() == outcome.matched_pairs()
            _assert_same_events(bound.result.matches, outcome.result.matches)

    def test_events_at_positions_are_those_of_matches(self, small_dataset):
        """A stream rebuilds only the events it owns; they equal the full
        rebuild's at the same positions, before and after it is cached."""
        config = _config()
        plan = _plan(small_dataset, "gram-prefix", "pickle", config)
        outcome = ParallelExecutor().run(plan, config).shards[1]
        decoded = decode_shard_outcome(encode_shard_outcome(outcome))
        result = ShardOutcome.of(plan, 1, decoded.result).result
        positions = list(range(0, result.result_size, 3))
        assert positions
        before = result.events(positions)
        assert result._matches is None  # a subset is not cached
        wanted = [outcome.result.matches[i] for i in positions]
        _assert_same_events(before, wanted)
        _assert_same_events(result.events(positions), before)
        result.matches
        _assert_same_events(result.events(positions), wanted)


class TestNothingButColumnsCrosses:
    @pytest.mark.parametrize("handoff", HANDOFFS)
    def test_worker_returns_load_without_records(self, small_dataset, handoff):
        config = _config()
        plan = _plan(small_dataset, "gram-prefix", handoff, config)
        published = plan.publish_blocks() if handoff == "shared-memory" else None
        descriptors = published.descriptors if published is not None else None
        try:
            for shard_id in range(plan.shard_count):
                returned = _run_shard_task(
                    _shard_task(plan, config, shard_id, 1, descriptors)
                )
                clone = _restricted_loads(pickle.dumps(returned))
                assert clone[0] == shard_id
                assert clone[1] == returned[1]
        finally:
            if published is not None:
                published.release()

    def test_store_lines_load_without_records(self, small_dataset, tmp_path):
        handle = (
            LinkageJob.between(small_dataset.parent, small_dataset.child)
            .on("location")
            .thresholds(FAST)
            .sharded(2, backend="process")
            .build()
        )
        handle.run()
        path = tmp_path / "jobs.jsonl"
        store = JsonlJobStore(str(path))
        store.add_job("job-1", {"attribute": "location"})
        for outcome in handle.shard_outcomes:
            store.record_shard("job-1", outcome)
        store.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        encoded = [r["outcome"] for r in records if r["type"] == "shard"]
        assert len(encoded) == 2
        for text in encoded:
            tag, shard_id, _, result = _restricted_loads(base64.b64decode(text))
            assert isinstance(result, ShardResult)
            assert result == handle.shard_outcomes[shard_id].result

    def test_the_restricted_unpickler_refuses_event_pickles(self, small_dataset):
        # The guard itself: an outcome holding session events is refused.
        config = _config()
        plan = _plan(small_dataset, "hash", "pickle", config)
        live = _live(plan, 0, config)
        assert live.matches
        with pytest.raises(pickle.UnpicklingError, match="crossed the boundary"):
            _restricted_loads(pickle.dumps(live))


@pytest.fixture
def event_constructions(monkeypatch):
    """Count ``MatchEvent`` constructions in this process."""
    counts = {"events": 0}
    original = MatchEvent.__new__

    def counting_new(cls, *args, **kwargs):
        counts["events"] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(MatchEvent, "__new__", staticmethod(counting_new))
    return counts


class TestNoEventsOnTheHotPath:
    def test_the_counter_sees_events_built_here(
        self, small_dataset, event_constructions
    ):
        config = _config()
        plan = _plan(small_dataset, "hash", "pickle", config)
        assert _live(plan, 0, config).matches
        assert event_constructions["events"] > 0

    def test_process_backend_pairs_build_no_event_in_the_parent(
        self, small_dataset, event_constructions
    ):
        handle = (
            LinkageJob.between(small_dataset.parent, small_dataset.child)
            .on("location")
            .thresholds(FAST)
            .sharded(2, backend="process")
            .build()
        )
        result = handle.run()
        assert len(result.pairs) > 0
        assert result.statistics["result_size"] == len(result.pairs)
        assert event_constructions["events"] == 0
        # Asking for the events is what rebuilds them.
        assert len(handle.shard_outcomes[0].result.matches) > 0
        assert event_constructions["events"] > 0
