"""Execution traces of adaptive join runs.

Figures 7 and 8 of the paper break a run down into the number of steps spent
in each of the four states, the number of state transitions, and the
corresponding weighted costs.  :class:`ExecutionTrace` accumulates exactly
that information (plus the assessment log, useful for debugging and for the
parameter-tuning benchmarks) while the adaptive processor runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.assessor import Assessment
from repro.core.events import AssessmentEvent, TransitionEvent
from repro.core.state_machine import JoinState, TransitionGuards
from repro.joins.base import JoinSide
from repro.joins.engine import StepBatch, SwitchRecord


@dataclass(frozen=True)
class TransitionRecord:
    """One state transition performed by the responder."""

    step: int
    from_state: JoinState
    to_state: JoinState
    #: Tuples re-indexed during the hash-table catch-up of this transition.
    catch_up_tuples: int
    #: Shard the transition happened in, for traces produced by
    #: :func:`merge_traces`; ``None`` in single-session traces.
    shard: Optional[int] = None


@dataclass(frozen=True)
class AssessmentRecord:
    """One activation of the control loop, with its outcome."""

    assessment: Assessment
    guards: TransitionGuards
    state_before: JoinState
    state_after: JoinState

    @property
    def transitioned(self) -> bool:
        """Whether this activation changed the processor state."""
        return self.state_before is not self.state_after


@dataclass
class ExecutionTrace:
    """Aggregate trace of one adaptive (or baseline) join execution."""

    initial_state: JoinState = JoinState.LEX_REX
    #: Steps spent in each state (Fig. 7, left bars).
    steps_per_state: Dict[JoinState, int] = field(
        default_factory=lambda: {state: 0 for state in JoinState}
    )
    #: Transitions *into* each state (Fig. 8 transition costs are weighted by target).
    transitions_into: Dict[JoinState, int] = field(
        default_factory=lambda: {state: 0 for state in JoinState}
    )
    transitions: List[TransitionRecord] = field(default_factory=list)
    assessments: List[AssessmentRecord] = field(default_factory=list)
    #: Matches emitted, split by the state in force when they were produced.
    matches_per_state: Dict[JoinState, int] = field(
        default_factory=lambda: {state: 0 for state in JoinState}
    )
    total_steps: int = 0
    total_matches: int = 0
    left_scanned: int = 0
    right_scanned: int = 0

    # -- accumulation ----------------------------------------------------------------

    def attach(self, bus, state_machine) -> "ExecutionTrace":
        """Subscribe this trace to a runtime event bus.

        Steps, transitions and assessments are recorded from the published
        events instead of explicit calls from the processor loop.  The
        ``state_machine`` supplies the state in force for each step (the
        engine does not know it); activations happen between steps, so the
        state read at publish time is exactly the state the step ran in.
        Returns ``self`` so construction and attachment chain.
        """

        record_batch = self.record_batch

        def on_batch(batch: StepBatch) -> None:
            # Batches never span an activation, so the state read at publish
            # time is the state every step of the batch ran in.
            record_batch(
                state_machine.state,
                batch.count,
                batch.left_steps,
                batch.right_steps,
                len(batch.match_events),
            )

        def on_transition(event: TransitionEvent) -> None:
            self.record_transition(
                event.step, event.from_state, event.to_state, list(event.switches)
            )

        def on_assessment(event: AssessmentEvent) -> None:
            self.record_assessment(
                event.assessment, event.guards, event.state_before, event.state_after
            )

        subscriptions = [
            (StepBatch, bus.subscribe(StepBatch, on_batch)),
            (TransitionEvent, bus.subscribe(TransitionEvent, on_transition)),
            (AssessmentEvent, bus.subscribe(AssessmentEvent, on_assessment)),
        ]
        self._subscriptions = getattr(self, "_subscriptions", []) + subscriptions
        return self

    def detach(self, bus) -> None:
        """Remove every subscription :meth:`attach` registered (no-op if none)."""
        for event_type, handler in getattr(self, "_subscriptions", ()):
            bus.unsubscribe(event_type, handler)
        self._subscriptions = []

    def record_step(self, state: JoinState, side: JoinSide, matches: int) -> None:
        """Record one engine step executed in ``state``."""
        self.steps_per_state[state] += 1
        self.matches_per_state[state] += matches
        self.total_steps += 1
        self.total_matches += matches
        if side is JoinSide.LEFT:
            self.left_scanned += 1
        else:
            self.right_scanned += 1

    def record_batch(
        self,
        state: JoinState,
        count: int,
        left_steps: int,
        right_steps: int,
        matches: int,
    ) -> None:
        """Record ``count`` contiguous steps executed in ``state`` in O(1).

        Equivalent to ``count`` :meth:`record_step` calls — the trace keeps
        only sums, so a batch folds into six additions.
        """
        self.steps_per_state[state] += count
        self.matches_per_state[state] += matches
        self.total_steps += count
        self.total_matches += matches
        self.left_scanned += left_steps
        self.right_scanned += right_steps

    def record_transition(
        self,
        step: int,
        from_state: JoinState,
        to_state: JoinState,
        switches: List[SwitchRecord],
    ) -> None:
        """Record one responder-enacted state transition."""
        catch_up = sum(switch.catch_up_tuples for switch in switches)
        self.transitions.append(
            TransitionRecord(
                step=step,
                from_state=from_state,
                to_state=to_state,
                catch_up_tuples=catch_up,
            )
        )
        self.transitions_into[to_state] += 1

    def record_assessment(
        self,
        assessment: Assessment,
        guards: TransitionGuards,
        state_before: JoinState,
        state_after: JoinState,
    ) -> None:
        """Record one activation of the control loop."""
        self.assessments.append(
            AssessmentRecord(
                assessment=assessment,
                guards=guards,
                state_before=state_before,
                state_after=state_after,
            )
        )

    # -- derived quantities ------------------------------------------------------------

    @property
    def transition_count(self) -> int:
        """Total number of state transitions (Fig. 7, right bars)."""
        return len(self.transitions)

    def steps_in(self, state) -> int:
        """Steps spent in ``state`` (a :class:`JoinState` or a label like ``"EE"``)."""
        if isinstance(state, str):
            state = JoinState.from_label(state)
        return self.steps_per_state[state]

    def step_fractions(self) -> Dict[JoinState, float]:
        """Fraction of steps spent in each state (the Fig. 7 breakdown)."""
        if self.total_steps == 0:
            return {state: 0.0 for state in JoinState}
        return {
            state: count / self.total_steps
            for state, count in self.steps_per_state.items()
        }

    def exact_step_fraction(self) -> float:
        """Fraction of steps executed fully exactly (the ≈30 % the paper reports)."""
        return self.step_fractions()[JoinState.LEX_REX]

    def assessment_count(self) -> int:
        """Number of control-loop activations."""
        return len(self.assessments)

    def summary(self) -> Dict[str, object]:
        """A flat summary dictionary used by benchmark reports."""
        return {
            "total_steps": self.total_steps,
            "total_matches": self.total_matches,
            "transitions": self.transition_count,
            "assessments": self.assessment_count(),
            "steps_per_state": {
                state.short_label: count
                for state, count in self.steps_per_state.items()
            },
            "transitions_into": {
                state.short_label: count
                for state, count in self.transitions_into.items()
            },
            "exact_step_fraction": self.exact_step_fraction(),
        }


def merge_traces(
    traces: Sequence[ExecutionTrace],
    shard_ids: Optional[Sequence[int]] = None,
) -> ExecutionTrace:
    """Merge per-shard execution traces into one aggregate trace.

    Per-state step counts, match counts, scan counts and transition tallies
    add up; the transition and assessment logs are concatenated in shard
    order.  Each shard numbers its steps from 1, so every transition's
    ``step`` — and every assessment's ``assessment.step`` — is offset by
    the total step count of the preceding shards — the merged logs read as
    one global, monotonically ordered timeline — and transitions are
    tagged with their shard id (``shard_ids`` defaults to positional).
    The merged trace is a reporting view: cost-model weighting
    (:meth:`CostModel.absolute_cost`) only consumes the per-state tallies,
    which are exact, so merged weighted costs equal the sum of per-shard
    weighted costs.
    """
    if not traces:
        raise ValueError("merge_traces needs at least one trace")
    if shard_ids is None:
        shard_ids = range(len(traces))
    elif len(shard_ids) != len(traces):
        raise ValueError(
            f"got {len(traces)} traces but {len(shard_ids)} shard ids"
        )
    merged = ExecutionTrace(initial_state=traces[0].initial_state)
    step_offset = 0
    for shard_id, trace in zip(shard_ids, traces):
        for state in JoinState:
            merged.steps_per_state[state] += trace.steps_per_state[state]
            merged.transitions_into[state] += trace.transitions_into[state]
            merged.matches_per_state[state] += trace.matches_per_state[state]
        merged.total_steps += trace.total_steps
        merged.total_matches += trace.total_matches
        merged.left_scanned += trace.left_scanned
        merged.right_scanned += trace.right_scanned
        merged.transitions.extend(
            replace(record, step=record.step + step_offset, shard=shard_id)
            for record in trace.transitions
        )
        if step_offset:
            merged.assessments.extend(
                replace(
                    record,
                    assessment=replace(
                        record.assessment,
                        step=record.assessment.step + step_offset,
                    ),
                )
                for record in trace.assessments
            )
        else:
            merged.assessments.extend(trace.assessments)
        step_offset += trace.total_steps
    return merged
