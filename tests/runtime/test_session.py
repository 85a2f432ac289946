"""Tests for JoinSession — construction, stepping, events, immutability."""

import pytest

from repro.core.state_machine import JoinState
from repro.core.thresholds import Thresholds
from repro.engine.streams import IteratorStream
from repro.joins.engine import StepResult, SwitchRecord
from repro.runtime.collectors import (
    MatchTap,
    StateDwellCollector,
    SwitchLog,
    ThroughputCollector,
)
from repro.runtime.config import RunConfig
from repro.core.events import AssessmentEvent, TransitionEvent
from repro.runtime.events import EventBus
from repro.runtime.session import JoinSession

FAST = Thresholds(delta_adapt=25, window_size=25)


def make_session(dataset, bus=None, **overrides):
    return JoinSession(
        dataset.parent,
        dataset.child,
        "location",
        RunConfig.from_thresholds(FAST, **overrides),
        bus=bus,
    )


class TestConstruction:
    def test_defaults_build_the_mar_stack(self, small_dataset):
        session = make_session(small_dataset)
        assert session.policy.name == "mar"
        assert session.state is JoinState.LEX_REX
        assert session.parent_size == len(small_dataset.parent)
        assert not session.finished

    def test_engine_inherits_config_knobs(self, small_dataset):
        session = make_session(
            small_dataset, use_length_filter=False, scan_batch=1
        )
        assert not session.engine.use_length_filter
        assert session.engine._scan_batch == 1
        assert session.engine.similarity_threshold == FAST.theta_sim
        assert session.engine.q == FAST.q

    def test_unsized_parent_stream_needs_parent_size(self, small_dataset):
        parent = IteratorStream(
            small_dataset.parent.schema, iter(small_dataset.parent.records)
        )
        with pytest.raises(ValueError, match="parent_size"):
            JoinSession(parent, small_dataset.child, "location")

    def test_budget_fraction_with_unsized_input_raises(self, small_dataset):
        child = IteratorStream(
            small_dataset.child.schema, iter(small_dataset.child.records)
        )
        with pytest.raises(ValueError, match="cost_budget"):
            make_session(
                type(
                    "D", (), {"parent": small_dataset.parent, "child": child}
                )(),
                budget_fraction=0.5,
            )


class TestExecution:
    def test_run_equals_stepping(self, small_dataset):
        stepped = make_session(small_dataset)
        while not stepped.finished:
            stepped.step()
        assert stepped.step() is None
        run = make_session(small_dataset).run()
        assert [e.pair_key() for e in stepped.matches] == [
            e.pair_key() for e in run.matches
        ]
        assert stepped.trace.steps_per_state == run.trace.steps_per_state
        assert stepped.trace.transition_count == run.trace.transition_count

    def test_result_snapshot_mid_run(self, small_dataset):
        session = make_session(small_dataset)
        for _ in range(100):
            session.step()
        snapshot = session.result()
        assert snapshot.trace.total_steps == 100
        assert snapshot.result_size == session.match_count
        final = session.run()
        assert final.result_size >= snapshot.result_size
        assert not snapshot.matches or final.matches[: snapshot.result_size] == (
            snapshot.matches
        )

    def test_trace_accounts_every_step(self, small_dataset):
        result = make_session(small_dataset).run()
        total = len(small_dataset.parent) + len(small_dataset.child)
        assert result.trace.total_steps == total
        assert sum(result.trace.steps_per_state.values()) == total


class TestImmutableMatches:
    def test_session_matches_is_a_snapshot(self, small_dataset):
        session = make_session(small_dataset)
        session.run()
        snapshot = session.matches
        assert isinstance(snapshot, tuple)
        assert session.matches == snapshot  # fresh snapshot, equal content

    def test_result_matches_is_immutable(self, small_dataset):
        result = make_session(small_dataset).run()
        assert isinstance(result.matches, tuple)
        with pytest.raises(AttributeError):
            result.matches.append  # tuples expose no mutators

    def test_processor_facade_matches_cannot_corrupt_state(self, small_dataset):
        from repro.runtime.adaptive import AdaptiveJoinProcessor

        processor = AdaptiveJoinProcessor(
            small_dataset.parent, small_dataset.child, "location", thresholds=FAST
        )
        result = processor.run()
        before = processor.matches
        assert isinstance(before, tuple)
        # The published result is equally detached from processor internals.
        assert result.matches == before


class TestEventFlow:
    def test_step_and_transition_events_flow_to_subscribers(self, small_dataset):
        bus = EventBus()
        steps, transitions, assessments, switches = [], [], [], []
        bus.subscribe(StepResult, steps.append)
        bus.subscribe(TransitionEvent, transitions.append)
        bus.subscribe(AssessmentEvent, assessments.append)
        bus.subscribe(SwitchRecord, switches.append)
        session = make_session(small_dataset, bus=bus)
        result = session.run()

        assert len(steps) == result.trace.total_steps
        assert len(transitions) == result.trace.transition_count
        assert len(assessments) == result.trace.assessment_count()
        # Every transition groups the per-side switches the engine performed.
        assert sum(len(t.switches) for t in transitions) == len(switches)
        for transition, record in zip(transitions, result.trace.transitions):
            assert transition.step == record.step
            assert transition.catch_up_tuples == record.catch_up_tuples

    def test_match_events_published_only_when_subscribed(self, small_dataset):
        bus = EventBus()
        tap = MatchTap().attach(bus)
        session = make_session(small_dataset, bus=bus)
        result = session.run()
        assert [e.pair_key() for e in tap.events] == result.matched_pairs()

    def test_engine_without_bus_publishes_nothing(self, small_dataset):
        from repro.joins.shjoin import SHJoin

        join = SHJoin(small_dataset.parent, small_dataset.child, "location")
        assert join.engine.bus is None
        join.run()  # simply must not fail

    def test_collectors(self, small_dataset):
        bus = EventBus()
        tap = MatchTap().attach(bus)
        log = SwitchLog().attach(bus)
        dwell = StateDwellCollector().attach(bus)
        throughput = ThroughputCollector().attach(bus)
        session = make_session(small_dataset, bus=bus)
        result = session.run()

        assert throughput.steps == result.trace.total_steps
        assert throughput.matches == result.result_size
        assert len(tap.events) == result.result_size
        assert tap.approximate_count == throughput.matches_by_mode["approximate"]
        assert log.total_catch_up_tuples == sum(
            t.catch_up_tuples for t in result.trace.transitions
        )
        dwells = dwell.finish()  # label tracked from the observed transitions
        assert sum(steps for _, steps in dwells) == result.trace.total_steps
        assert len(dwells) == result.trace.transition_count + 1
        if result.trace.transition_count:
            assert dwells[-1][0] == result.final_state.label


class TestBusReuse:
    def test_finished_session_detaches_its_subscribers(self, small_dataset):
        """A caller-owned bus can be reused by the next session safely."""
        bus = EventBus()
        throughput = ThroughputCollector().attach(bus)

        first = make_session(small_dataset, bus=bus)
        first_result = first.run()
        first_steps = first_result.trace.total_steps

        second = make_session(small_dataset, bus=bus)
        second_result = second.run()

        # The long-lived collector saw both runs …
        assert throughput.steps == first_steps + second_result.trace.total_steps
        # … but the finished session's own observers did not cross-record.
        assert first_result.trace.total_steps == first_steps
        assert first.match_count == first_result.result_size
        assert second_result.trace.total_steps == first_steps

    def test_detach_is_idempotent(self, small_dataset):
        session = make_session(small_dataset)
        session.run()
        session.detach()
        session.detach()


class TestPolicyOverride:
    def test_policy_name_override(self, small_dataset):
        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            policy="fixed",
        )
        assert session.policy.name == "fixed"
        # The override is reflected into the config so reports name the
        # policy that actually drove the run.
        assert session.config.policy == "fixed"
        assert session.config.as_dict()["policy"] == "fixed"
        result = session.run()
        assert result.trace.transition_count == 0

    def test_policy_instance_override(self, small_dataset):
        from repro.runtime.policy import FixedStatePolicy

        policy = FixedStatePolicy()
        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            policy=policy,
        )
        assert session.policy is policy
        assert policy.session is session
        assert session.config.policy == "fixed"


class TestForceState:
    def test_force_state_switches_engine_and_publishes(self, small_dataset):
        bus = EventBus()
        transitions = []
        bus.subscribe(TransitionEvent, transitions.append)
        session = make_session(small_dataset, bus=bus)
        for _ in range(10):
            session.step()
        session.force_state(JoinState.LAP_RAP, step=10)
        assert session.state is JoinState.LAP_RAP
        from repro.joins.base import JoinMode, JoinSide

        assert session.engine.mode(JoinSide.LEFT) is JoinMode.APPROXIMATE
        assert session.engine.mode(JoinSide.RIGHT) is JoinMode.APPROXIMATE
        assert len(transitions) == 1
        assert transitions[0].to_state is JoinState.LAP_RAP

    def test_force_state_to_current_state_is_a_noop(self, small_dataset):
        bus = EventBus()
        transitions = []
        bus.subscribe(TransitionEvent, transitions.append)
        session = make_session(small_dataset, bus=bus)
        session.force_state(JoinState.LEX_REX, step=0)
        assert transitions == []
        assert session.trace.transition_count == 0
