"""JoinSession — the single way adaptive join executions are built and driven.

A session takes two inputs, a join attribute and a
:class:`~repro.runtime.config.RunConfig` and assembles the whole stack:

* the switchable :class:`~repro.joins.engine.SymmetricJoinEngine`;
* an :class:`~repro.runtime.events.EventBus` the engine publishes
  :class:`~repro.joins.engine.StepBatch` /
  :class:`~repro.joins.engine.StepResult` /
  :class:`~repro.joins.base.MatchEvent` /
  :class:`~repro.joins.engine.SwitchRecord` events onto;
* the :class:`~repro.core.monitor.Monitor` and
  :class:`~repro.core.trace.ExecutionTrace`, attached as bus subscribers
  rather than hard-wired callees;
* the four-state machine and a named
  :class:`~repro.runtime.policy.SwitchPolicy` (``"mar"`` by default)
  deciding the operator switches.

``AdaptiveJoinProcessor``, :func:`repro.linkage.api.link_tables`, the
bench harness and the CLI all construct executions through this class, so
parameter plumbing lives in exactly one place.  A session is also the unit
of future parallelism: it owns its engine, bus and policy and shares no
mutable state with other sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from repro.core.cost_model import CostModel
from repro.core.events import TransitionEvent
from repro.core.monitor import Monitor
from repro.core.state_machine import JoinState, StateMachine
from repro.core.trace import ExecutionTrace
from repro.engine.streams import InputLike, as_stream
from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinAttribute, JoinSide, MatchEvent, OperationCounters
from repro.joins.engine import StepBatch, SymmetricJoinEngine
from repro.runtime.config import RunConfig, input_size
from repro.runtime.events import EventBus
from repro.runtime.policy import SwitchPolicy, create_policy

#: Batch size used to drain the remaining input once a policy reports no
#: further activation boundary (``next_activation_step() is None``).
_DRAIN_BATCH = 1024


@dataclass
class AdaptiveJoinResult:
    """Everything produced by one adaptive join run."""

    #: All matched pairs, in emission order.  Immutable: callers get a
    #: snapshot, never the session's internal accumulator.
    matches: Tuple[MatchEvent, ...]
    #: The execution trace (state occupancy, transitions, assessments).
    trace: ExecutionTrace
    #: Final processor state.
    final_state: JoinState
    #: Elementary-operation counters accumulated by the engine.
    counters: OperationCounters
    #: Output schema of the joined records.
    output_schema: Schema
    #: Whether the run was interrupted by a cancel token before draining
    #: both inputs (the matches/trace/counters are the partial state at
    #: the cancellation point).
    cancelled: bool = False

    @property
    def result_size(self) -> int:
        """Number of matched pairs produced (``r_abs``)."""
        return len(self.matches)

    @property
    def never_ran(self) -> bool:
        """Cancelled before the first engine step: skipped, not partial.

        The one definition of the skipped-run rule — the parallel
        backends and the jobs streaming path both drop such outcomes
        rather than reporting a shard that did no work.
        """
        return self.cancelled and self.trace.total_steps == 0

    def output_records(self) -> List[Record]:
        """Materialise the joined output records."""
        return [event.output_record(self.output_schema) for event in self.matches]

    def matched_pairs(self) -> List[tuple]:
        """(left ordinal, right ordinal) pairs, useful for completeness checks."""
        return [event.pair_key() for event in self.matches]

    def weighted_cost(self, cost_model: Optional[CostModel] = None) -> float:
        """``c_abs`` under ``cost_model`` (paper weights by default)."""
        return (cost_model or CostModel()).absolute_cost(self.trace)


class JoinSession:
    """One adaptive join execution: engine + event bus + control stack.

    Parameters
    ----------
    left, right:
        The two inputs: tables, streams, or any ``.stream()``-bearing
        source (e.g. a shard input, whose block-backed form reads
        zero-copy from shared columnar buffers).
    attribute:
        Join attribute name (same on both sides) or a
        :class:`~repro.joins.base.JoinAttribute`.
    config:
        The complete run configuration (paper defaults when omitted).
    bus:
        Optional pre-built event bus.  Subscribe observers *before*
        constructing the session — or at any quiescent point — and they
        see every subsequent event.
    policy:
        Optional policy override: an unbound :class:`SwitchPolicy`
        instance or a registered name; defaults to ``config.policy``.
        Passing an instance is the hook for parameterised or ad-hoc
        policies that the pure-data config cannot describe.
    """

    def __init__(
        self,
        left: InputLike,
        right: InputLike,
        attribute: Union[str, JoinAttribute],
        config: Optional[RunConfig] = None,
        bus: Optional[EventBus] = None,
        policy: Optional[Union[str, SwitchPolicy]] = None,
    ) -> None:
        self.config = config = config or RunConfig()
        if isinstance(attribute, str):
            attribute = JoinAttribute(attribute, attribute)
        self.attribute = attribute
        self.bus = bus if bus is not None else EventBus()

        # Normalise both inputs to record streams once, up front: tables
        # wrap in a TableStream, shard inputs contribute their stream view
        # (for block-backed shards a zero-copy RowSliceStream over the
        # shared columnar buffers), streams pass through.  Sizing, parent
        # size resolution and the engine all observe the same objects.
        left = as_stream(left)
        right = as_stream(right)

        # Parent size resolves lazily (first access of `parent_size`): only
        # policies that actually consume |R| — MAR's assessor binds it —
        # force the resolution, so size-free policies (fixed,
        # budget-greedy with an absolute budget) run over unsized streams.
        self._parent_input = left if config.parent_side is JoinSide.LEFT else right
        self._parent_size: Optional[int] = None
        left_size, right_size = input_size(left), input_size(right)
        #: Combined input size (== the step count of a full run), or
        #: ``None`` when either input is an unsized stream.  Consumed by
        #: budget resolution and by policies that project remaining work
        #: (e.g. the ``deadline`` policy).
        self.total_steps: Optional[int] = (
            left_size + right_size
            if left_size is not None and right_size is not None
            else None
        )
        self.cost_budget = config.resolve_budget(self.total_steps)

        if policy is None:
            policy = create_policy(config.policy)
        elif isinstance(policy, str):
            policy = create_policy(policy)
        self.policy = policy
        # Reflect an overriding policy back into the config so reports
        # built from config.as_dict() name the policy actually driving
        # the run (ad-hoc unregistered instances report their class name).
        effective_name = policy.name or type(policy).__name__
        if effective_name != config.policy:
            self.config = config = config.with_overrides(policy=effective_name)
        initial = policy.resolve_initial_state(config)
        self.initial_state = initial

        thresholds = config.thresholds
        self.engine = SymmetricJoinEngine(
            left,
            right,
            attribute,
            similarity_threshold=thresholds.theta_sim,
            q=thresholds.q,
            left_mode=initial.left_mode,
            right_mode=initial.right_mode,
            padded_qgrams=config.padded_qgrams,
            verify_jaccard=config.verify_jaccard,
            use_prefix_filter=config.use_prefix_filter,
            use_length_filter=config.use_length_filter,
            scan_batch=config.scan_batch,
            eager_indexing=config.eager_indexing,
            deduplicate=config.deduplicate,
            bus=self.bus,
        )
        self.monitor = Monitor(window_size=thresholds.window_size)
        self.state_machine = StateMachine(initial=initial)
        self.trace = ExecutionTrace(initial_state=initial)
        self._matches: List[MatchEvent] = []
        self._finished = False
        self._cancelled = False

        # The session's built-in observers consume the engine's aggregate
        # StepBatch events (one per batch — or per step, as a batch of one —
        # never both), so the engine's fast path skips per-step event
        # construction entirely.  Subscription order fixes the observer
        # order: monitor first, then trace, then match accumulation — the
        # same order the pre-runtime processor loop used (kept for
        # bit-identical traces).
        self.monitor.attach(self.bus)
        self.trace.attach(self.bus, self.state_machine)

        matches_extend = self._matches.extend

        def accumulate(batch: StepBatch) -> None:
            if batch.match_events:
                matches_extend(batch.match_events)

        self._accumulate_handler = self.bus.subscribe(StepBatch, accumulate)
        self._detached = False
        self.policy.bind(self)

    # -- state ---------------------------------------------------------------------

    @property
    def parent_size(self) -> int:
        """``|R|``, resolved on first access (see ``RunConfig.resolve_parent_size``)."""
        if self._parent_size is None:
            self._parent_size = self.config.resolve_parent_size(self._parent_input)
        return self._parent_size

    @property
    def state(self) -> JoinState:
        """Current processor state."""
        return self.state_machine.state

    @property
    def output_schema(self) -> Schema:
        """Schema of the joined output records."""
        return self.engine.output_schema

    @property
    def matches(self) -> Tuple[MatchEvent, ...]:
        """Matched pairs produced so far (immutable snapshot)."""
        return tuple(self._matches)

    @property
    def match_count(self) -> int:
        """Number of matched pairs produced so far (no snapshot cost)."""
        return len(self._matches)

    @property
    def finished(self) -> bool:
        """True once both inputs have been drained."""
        return self._finished

    @property
    def cancelled(self) -> bool:
        """True when a cancel token stopped the run before it finished."""
        return self._cancelled

    @property
    def budget_exhausted(self) -> bool:
        """Whether the policy reports the cost budget as used up."""
        return bool(getattr(self.policy, "budget_exhausted", False))

    # -- control-plane helpers (used by policies) ------------------------------------

    def detach(self) -> None:
        """Remove this session's own subscribers from the bus (idempotent).

        Called automatically when the session finishes, so a caller-owned
        bus can be handed to the *next* session (keeping long-lived
        collectors attached) without the completed session's monitor,
        trace and match accumulator cross-recording the new run.  Running
        two sessions on one bus *concurrently* remains unsupported.
        """
        if self._detached:
            return
        self._detached = True
        self.monitor.detach(self.bus)
        self.trace.detach(self.bus)
        self.bus.unsubscribe(StepBatch, self._accumulate_handler)

    def _mark_finished(self) -> None:
        self._finished = True
        self.detach()

    def mark_cancelled(self) -> None:
        """Latch cancellation and release the bus (the run will not resume).

        Called by :meth:`run_batches` when its cancel token trips, and by
        external drivers (the jobs layer's stream teardown) that stop
        consuming a session mid-run: :attr:`cancelled` latches, the
        session's subscribers detach, and :meth:`result` snapshots the
        partial outcome.  Idempotent.
        """
        self._cancelled = True
        self.detach()

    def force_state(self, state: JoinState, step: int) -> None:
        """Unconditionally move the session to ``state`` (policy override).

        Bypasses guard evaluation: the state machine is forced, the engine
        modes are switched (with catch-up) and a
        :class:`~repro.core.events.TransitionEvent` is published.  A
        no-op when already in ``state``.
        """
        state_before = self.state_machine.state
        if state_before is state:
            return
        self.state_machine.force(state, step=step)
        switches = self.engine.set_modes(state.left_mode, state.right_mode)
        self.bus.publish(
            TransitionEvent(step, state_before, state, tuple(switches))
        )

    # -- execution ------------------------------------------------------------------

    def step(self) -> Optional[List[MatchEvent]]:
        """Execute one engine step followed (when due) by one policy activation.

        Returns the match events produced by the step, or ``None`` when
        the join has finished.  Observers (monitor, trace, collectors) are
        notified through the bus during the engine step.
        """
        result = self.engine.step()
        if result is None:
            self._mark_finished()
            return None
        if self.policy.should_activate(result.step):
            self.policy.activate(result.step)
        return result.matches

    def run(self, cancel: Optional[object] = None) -> AdaptiveJoinResult:
        """Run the join to completion and return the full result.

        Drives the engine through its batched stepping API: between two
        policy activations the processor state cannot change, so the
        engine is asked for the whole run of steps up to the policy's next
        activation boundary (:meth:`SwitchPolicy.next_activation_step`) at
        once (:meth:`SymmetricJoinEngine.run_batch`); observers consume
        one aggregate :class:`~repro.joins.engine.StepBatch` per batch, so
        the monitor windows, the trace and the activation points are
        bit-identical to stepping one tuple at a time via :meth:`step`.

        ``cancel`` (anything with an ``is_set()`` method, typically a
        :class:`threading.Event`) stops the run at the next batch
        boundary; the returned result then carries ``cancelled=True``
        with the partial matches/trace/counters.
        """
        for _ in self.run_batches(cancel=cancel):
            pass
        return self.result()

    def run_batches(
        self,
        max_batch: Optional[int] = None,
        cancel: Optional[object] = None,
    ) -> Iterator[List[MatchEvent]]:
        """Drive the join incrementally, yielding each batch's match events.

        The generator behind :meth:`run` and the streaming surface of the
        jobs layer (:meth:`repro.jobs.JobHandle.stream_matches`).  Each
        iteration runs one engine batch — up to the policy's next
        activation boundary, additionally capped at ``max_batch`` steps
        when given — and yields the (possibly empty) list of
        :class:`~repro.joins.base.MatchEvent`\\ s it produced, so a
        consumer sees matches as they are found instead of after the
        run.  Policy activations happen at exactly the same steps as
        under :meth:`run`: capping a batch never crosses an activation
        boundary, it only splits the stretch between two boundaries.

        ``cancel`` is checked between batches (i.e. between engine
        steps, in a quiescent state): once ``cancel.is_set()`` the
        generator stops, the session's observers are detached and
        :attr:`cancelled` latches — :meth:`result` then snapshots the
        partial outcome.
        """
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        engine = self.engine
        policy = self.policy
        while not self._finished:
            if cancel is not None and cancel.is_set():
                self.mark_cancelled()
                return
            boundary = policy.next_activation_step(engine.step_count)
            if boundary is None:
                chunk = _DRAIN_BATCH
            elif boundary <= engine.step_count:
                raise ValueError(
                    f"policy {policy.name or type(policy).__name__!r} returned "
                    f"next_activation_step {boundary} ≤ current step "
                    f"{engine.step_count}"
                )
            else:
                chunk = boundary - engine.step_count
            if max_batch is not None and chunk > max_batch:
                chunk = max_batch
            batch = engine.run_batch(chunk)
            if batch is None:
                self._mark_finished()
                break
            last_step = batch.last_step
            if policy.should_activate(last_step):
                policy.activate(last_step)
            if batch.count < chunk:
                self._mark_finished()
            yield batch.match_events

    def result(self) -> AdaptiveJoinResult:
        """Snapshot the current outcome (also valid mid-run)."""
        return AdaptiveJoinResult(
            matches=tuple(self._matches),
            trace=self.trace,
            final_state=self.state_machine.state,
            counters=self.engine.counters(),
            output_schema=self.engine.output_schema,
            cancelled=self._cancelled,
        )
