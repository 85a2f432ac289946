"""Batch-dispatch equivalence: a batched run observes exactly what stepping does.

The engine's only step event is the aggregate
:class:`~repro.joins.engine.StepBatch`, one per engine batch; the
monitor, trace, session accumulator and collectors all consume batches.
These tests pin the contract that makes batching safe: batch observation
is bit-identical to per-step observation, every executed step is covered
by exactly one published batch, and single-stepping a session (batches
of one) changes nothing observable against ``run()``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state_machine import JoinState
from repro.core.thresholds import Thresholds
from repro.core.trace import ExecutionTrace
from repro.joins.base import JoinSide
from repro.joins.engine import StepBatch
from repro.runtime.config import RunConfig
from repro.runtime.events import EventBus
from repro.runtime.session import JoinSession
from repro.stats.windows import SlidingWindowCounter

FAST = Thresholds(delta_adapt=25, window_size=25)


def make_session(dataset, bus=None, **overrides):
    return JoinSession(
        dataset.parent,
        dataset.child,
        "location",
        RunConfig.from_thresholds(FAST, **overrides),
        bus=bus,
    )


class TestSlidingWindowRecordRun:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=30)),
            max_size=12,
        ),
    )
    def test_record_run_equals_record_loop(self, window_size, runs):
        batched = SlidingWindowCounter(window_size)
        stepped = SlidingWindowCounter(window_size)
        for positive, count in runs:
            batched.record_run(positive, count)
            for _ in range(count):
                stepped.record(positive)
            assert batched.positives == stepped.positives
            assert batched.observed == stepped.observed
            assert batched.fraction == stepped.fraction


class TestExactlyOneBatchPerStep:
    def test_run_covers_every_step_once(self, small_dataset):
        bus = EventBus()
        batches = []
        bus.subscribe(StepBatch, batches.append)
        session = make_session(small_dataset, bus=bus)
        result = session.run()
        total = len(small_dataset.parent) + len(small_dataset.child)
        assert sum(batch.count for batch in batches) == total
        # Contiguous, non-overlapping coverage in step order.
        expected_next = 1
        for batch in batches:
            assert batch.first_step == expected_next
            assert batch.left_steps + batch.right_steps == batch.count
            expected_next = batch.last_step + 1
        assert expected_next == total + 1
        assert sum(len(batch.match_events) for batch in batches) == len(
            result.matches
        )

    def test_single_stepping_publishes_batches_of_one(self, small_dataset):
        bus = EventBus()
        batches = []
        bus.subscribe(StepBatch, batches.append)
        session = make_session(small_dataset, bus=bus)
        for _ in range(10):
            session.step()
        assert [batch.count for batch in batches] == [1] * 10
        assert [batch.first_step for batch in batches] == list(range(1, 11))


def event_fields(event):
    """Every field of a match event, with the pair reduced to its key."""
    return (
        event.step,
        event.probe_side,
        event.mode,
        event.pair_key(),
        event.similarity,
        event.exact_value_match,
        event.variant_evidence,
    )


def side_snapshot(session):
    """Both sides' ``matched_exactly`` flags and operation counters."""
    return {
        side: (
            [stored.matched_exactly for stored in state.tuples],
            state.counters.as_dict(),
        )
        for side, state in session.engine.sides.items()
    }


#: The MAR default plus each fixed state, so every probe branch (exact and
#: approximate, from either side) runs on both paths.
POLICIES = [{}] + [
    {"policy": "fixed", "initial_state": state} for state in JoinState
]


class TestSingleSteppingEquivalence:
    @pytest.mark.parametrize(
        "overrides",
        POLICIES,
        ids=["mar"] + [state.label for state in JoinState],
    )
    @pytest.mark.parametrize("dataset", ["small_dataset", "small_dataset_both"])
    def test_single_stepping_changes_nothing_observable(
        self, request, dataset, overrides
    ):
        dataset = request.getfixturevalue(dataset)
        ran = make_session(dataset, **overrides)
        ran_result = ran.run()

        stepped = make_session(dataset, **overrides)
        while not stepped.finished:
            stepped.step()
        stepped_result = stepped.result()

        assert ran_result.matches, "the comparison needs matches"
        assert [event_fields(e) for e in ran_result.matches] == [
            event_fields(e) for e in stepped_result.matches
        ]
        assert side_snapshot(ran) == side_snapshot(stepped)
        assert ran_result.counters.as_dict() == stepped_result.counters.as_dict()
        assert ran.trace.steps_per_state == stepped.trace.steps_per_state
        assert ran.trace.total_steps == stepped.trace.total_steps
        assert ran.trace.left_scanned == stepped.trace.left_scanned
        assert ran.trace.right_scanned == stepped.trace.right_scanned
        assert ran.trace.transition_count == stepped.trace.transition_count
        assert ran.monitor.observation() == stepped.monitor.observation()


class TestTraceBatchFold:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(JoinState)),
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=10,
        ),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_record_batch_equals_record_step_loop(self, entries, seed):
        rng = random.Random(seed)
        batched = ExecutionTrace()
        stepped = ExecutionTrace()
        for state, count, matches in entries:
            left_steps = rng.randint(0, count)
            batched.record_batch(
                state, count, left_steps, count - left_steps, matches
            )
            match_steps = sorted(
                rng.sample(range(count), min(matches, count))
            )
            per_step_matches = [0] * count
            for position, match_step in enumerate(match_steps):
                per_step_matches[match_step] += 1
            # Distribute any excess matches onto the first step, as a batch
            # can carry several matches per step.
            excess = matches - sum(per_step_matches)
            if count and excess:
                per_step_matches[0] += excess
            sides = [JoinSide.LEFT] * left_steps + [JoinSide.RIGHT] * (
                count - left_steps
            )
            for side, step_matches in zip(sides, per_step_matches):
                stepped.record_step(state, side, step_matches)
        assert batched.steps_per_state == stepped.steps_per_state
        assert batched.matches_per_state == stepped.matches_per_state
        assert batched.total_steps == stepped.total_steps
        assert batched.total_matches == stepped.total_matches
        assert batched.left_scanned == stepped.left_scanned
        assert batched.right_scanned == stepped.right_scanned
