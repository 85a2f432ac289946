"""Equivalence: the ``"mar"`` policy through JoinSession vs. the pre-refactor loop.

The runtime refactor moved construction (RunConfig/JoinSession), switch
decisions (SwitchPolicy) and observation (EventBus subscribers) out of
``AdaptiveJoinProcessor`` — but the ``"mar"`` default must reproduce the
pre-refactor behaviour *bit-identically*.  This module pins that down with
a seeded property test: ``ReferenceAdaptiveLoop`` below is a frozen copy
of the pre-refactor ``AdaptiveJoinProcessor`` execution loop (hand-wired
monitor / assessor / responder / trace, direct engine stepping, no bus,
no policy indirection), and every randomly drawn workload must yield

* identical ``OperationCounters``,
* an identical match list (pair keys, similarity, step, mode, probe side),
* an identical transition trace (step, states, catch-up counts), and
* identical per-state step occupancy and assessment logs,

across θ_sim / q / δ_adapt / budget combinations.
"""

from __future__ import annotations

import random
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assessor import Assessor
from repro.core.budget import CostBudget
from repro.core.cost_model import CostModel
from repro.core.monitor import Monitor
from repro.core.responder import Responder
from repro.core.state_machine import JoinState, StateMachine
from repro.core.thresholds import Thresholds
from repro.core.trace import ExecutionTrace
from repro.datagen.municipalities import generate_location_strings
from repro.datagen.variants import make_variant
from repro.engine.streams import TableStream
from repro.engine.table import Table
from repro.engine.tuples import Schema
from repro.joins.base import JoinAttribute, JoinSide, MatchEvent
from repro.joins.engine import SymmetricJoinEngine
from repro.runtime.config import RunConfig
from repro.runtime.session import JoinSession

SCHEMA = Schema(["row_id", "location"], name="rows")


class ReferenceAdaptiveLoop:
    """The pre-refactor AdaptiveJoinProcessor loop, frozen as a test oracle.

    Construction is a verbatim port of the PR-1 code and ``run`` keeps its
    per-step structure: the engine is hand-assembled and advanced one step
    at a time (``run_batch(1)``), the monitor and trace are fed each step
    explicitly from the loop, the assessor's own ``should_assess`` decides
    when to activate, and the MAR activation (with budget pinning) is
    inlined.  Do not "modernise" this class — its whole value is that it
    does NOT go through the runtime layer.
    """

    def __init__(
        self,
        left: Table,
        right: Table,
        attribute: str,
        thresholds: Thresholds,
        cost_budget: Optional[CostBudget] = None,
        allow_source_identification: bool = True,
        initial_state: JoinState = JoinState.LEX_REX,
    ) -> None:
        self.thresholds = thresholds
        join_attribute = JoinAttribute(attribute, attribute)
        self.parent_size = len(left)
        self.engine = SymmetricJoinEngine(
            TableStream(left),
            TableStream(right),
            join_attribute,
            similarity_threshold=thresholds.theta_sim,
            q=thresholds.q,
            left_mode=initial_state.left_mode,
            right_mode=initial_state.right_mode,
        )
        self.monitor = Monitor(window_size=thresholds.window_size)
        self.assessor = Assessor(
            thresholds=thresholds,
            parent_size=self.parent_size,
            parent_side=JoinSide.LEFT,
        )
        self.state_machine = StateMachine(initial=initial_state)
        self.responder = Responder(
            self.state_machine,
            allow_source_identification=allow_source_identification,
        )
        self.trace = ExecutionTrace(initial_state=initial_state)
        self.cost_budget = cost_budget
        self.cost_model = CostModel()
        self._budget_exhausted = False
        self._matches: List[MatchEvent] = []
        self._finished = False

    def _activate_control_loop(self, step: int) -> None:
        if self.cost_budget is not None and not self._budget_exhausted:
            if self.cost_budget.exhausted(self.trace, self.cost_model):
                self._budget_exhausted = True
        if self._budget_exhausted:
            state_before = self.state_machine.state
            if state_before is not JoinState.LEX_REX:
                self.state_machine.force(JoinState.LEX_REX, step=step)
                switches = self.engine.set_modes(
                    JoinState.LEX_REX.left_mode, JoinState.LEX_REX.right_mode
                )
                self.trace.record_transition(
                    step, state_before, JoinState.LEX_REX, switches
                )
            return
        observation = self.monitor.observation()
        assessment = self.assessor.assess(observation)
        state_before = self.state_machine.state
        guards, new_state, switches = self.responder.respond(assessment, self.engine)
        state_after = self.state_machine.state
        self.trace.record_assessment(assessment, guards, state_before, state_after)
        if new_state is not None:
            self.trace.record_transition(step, state_before, new_state, switches)

    def run(self):
        engine = self.engine
        observe = self.monitor.observe_step
        record_step = self.trace.record_step
        matches_extend = self._matches.extend
        while not self._finished:
            batch = engine.run_batch(1)  # exactly one engine step
            if batch is None:
                self._finished = True
                break
            step = batch.first_step
            side = JoinSide.LEFT if batch.left_steps else JoinSide.RIGHT
            mode = batch.left_mode if side is JoinSide.LEFT else batch.right_mode
            observe(step, side, mode, batch.match_events)
            record_step(self.state_machine.state, side, len(batch.match_events))
            if batch.match_events:
                matches_extend(batch.match_events)
            if self.assessor.should_assess(step):
                self._activate_control_loop(step)
        return (
            self._matches,
            self.trace,
            self.state_machine.state,
            self.engine.counters(),
        )


@st.composite
def workloads(draw):
    """A random workload plus a θ/q/δ/budget configuration."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    parent_size = draw(st.integers(min_value=5, max_value=60))
    child_size = draw(st.integers(min_value=5, max_value=120))
    variant_rate = draw(st.sampled_from([0.0, 0.15, 0.35]))
    delta_adapt = draw(st.sampled_from([5, 10, 25]))
    theta_sim = draw(st.sampled_from([0.7, 0.8, 0.85]))
    q = draw(st.sampled_from([2, 3]))
    budget_fraction = draw(st.sampled_from([None, 0.2, 0.6, 1.0]))

    rng = random.Random(seed)
    locations = generate_location_strings(parent_size, seed=seed)
    parent = Table(SCHEMA, name="parent")
    for index, location in enumerate(locations):
        parent.insert_values(index, location)
    child = Table(SCHEMA, name="child")
    for index in range(child_size):
        location = rng.choice(locations)
        if rng.random() < variant_rate:
            location = make_variant(location, rng)
        child.insert_values(index, location)

    thresholds = Thresholds(
        theta_sim=theta_sim,
        delta_adapt=delta_adapt,
        window_size=delta_adapt,
        q=q,
    )
    return parent, child, thresholds, budget_fraction


def _match_fingerprint(events) -> list:
    return [
        (
            event.step,
            event.pair_key(),
            event.similarity,
            event.mode,
            event.probe_side,
            event.exact_value_match,
            event.variant_evidence,
        )
        for event in events
    ]


def _transition_fingerprint(trace: ExecutionTrace) -> list:
    return [
        (t.step, t.from_state, t.to_state, t.catch_up_tuples)
        for t in trace.transitions
    ]


def _assessment_fingerprint(trace: ExecutionTrace) -> list:
    return [
        (
            record.assessment,
            record.guards,
            record.state_before,
            record.state_after,
        )
        for record in trace.assessments
    ]


@settings(max_examples=30, deadline=None)
@given(workloads())
def test_mar_session_is_bit_identical_to_the_pre_refactor_loop(workload):
    parent, child, thresholds, budget_fraction = workload
    total_steps = len(parent) + len(child)
    budget = (
        CostBudget.relative(budget_fraction, total_steps)
        if budget_fraction is not None
        else None
    )

    reference = ReferenceAdaptiveLoop(
        parent, child, "location", thresholds, cost_budget=budget
    )
    ref_matches, ref_trace, ref_final, ref_counters = reference.run()

    session = JoinSession(
        parent,
        child,
        "location",
        RunConfig.from_thresholds(
            thresholds, policy="mar", budget_fraction=budget_fraction
        ),
    )
    result = session.run()

    assert result.counters.as_dict() == ref_counters.as_dict()
    assert _match_fingerprint(result.matches) == _match_fingerprint(ref_matches)
    assert _transition_fingerprint(result.trace) == _transition_fingerprint(ref_trace)
    assert _assessment_fingerprint(result.trace) == _assessment_fingerprint(ref_trace)
    assert result.trace.steps_per_state == ref_trace.steps_per_state
    assert result.trace.matches_per_state == ref_trace.matches_per_state
    assert result.final_state is ref_final
    assert result.trace.total_steps == ref_trace.total_steps


@settings(max_examples=10, deadline=None)
@given(workloads())
def test_two_state_ablation_equivalence(workload):
    """The allow_source_identification=False ablation also round-trips."""
    parent, child, thresholds, _ = workload

    reference = ReferenceAdaptiveLoop(
        parent, child, "location", thresholds, allow_source_identification=False
    )
    ref_matches, ref_trace, ref_final, ref_counters = reference.run()

    session = JoinSession(
        parent,
        child,
        "location",
        RunConfig.from_thresholds(
            thresholds, policy="mar", allow_source_identification=False
        ),
    )
    result = session.run()

    assert result.counters.as_dict() == ref_counters.as_dict()
    assert _match_fingerprint(result.matches) == _match_fingerprint(ref_matches)
    assert _transition_fingerprint(result.trace) == _transition_fingerprint(ref_trace)
    assert result.final_state is ref_final
