"""The adaptive join processor (paper Sec. 3).

:class:`AdaptiveJoinProcessor` is the paper-facing entry point for the
MAR-controlled adaptive join.  It lives in the runtime layer because it
is, since the PR-2 runtime refactor, a thin façade over
:class:`~repro.runtime.session.JoinSession`; a ``core`` module importing
upward into ``repro.runtime`` would invert the layer order.  The session
builds the engine + control stack from a
:class:`~repro.runtime.config.RunConfig` and drives it, with

1. a :class:`~repro.joins.engine.SymmetricJoinEngine` executing the join
   in batches of steps (one step = one quiescent-state transition) and
   publishing one ``StepBatch`` per batch onto the session's event bus;
2. a :class:`~repro.core.monitor.Monitor` observing each step as a bus
   subscriber;
3. a :class:`~repro.runtime.policy.SwitchPolicy` — by default the paper's
   MAR loop (:class:`~repro.runtime.policy.MarPolicy`): every ``δ_adapt``
   steps an :class:`~repro.core.assessor.Assessor` evaluates the σ / µ / π
   predicates and a :class:`~repro.core.responder.Responder` maps the
   assessment onto the four-state machine of Fig. 4, switching the
   engine's per-side operators (with the hash-table catch-up of Sec. 2.3);
4. an :class:`~repro.core.trace.ExecutionTrace` recording state occupancy,
   transitions and assessments (also a bus subscriber) for the cost model
   and the Fig. 7/8 breakdowns.

The processor starts, optimistically, in ``lex/rex`` (both sides exact).

Two entry points are provided:

* :meth:`AdaptiveJoinProcessor.run` — run the whole join and return an
  :class:`AdaptiveJoinResult` (the mode used by the benchmarks);
* :class:`AdaptiveSymmetricJoin` — an iterator-protocol operator wrapper,
  so the adaptive join can be dropped into a query plan like any other
  physical operator.

Code that needs more control — a different switch policy, extra event
subscribers, declarative configuration — should use
:class:`~repro.runtime.session.JoinSession` directly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple, Union

from repro.core.budget import CostBudget
from repro.core.cost_model import CostModel
from repro.core.monitor import Monitor
from repro.core.state_machine import JoinState, StateMachine
from repro.core.thresholds import Thresholds
from repro.core.trace import ExecutionTrace
from repro.engine.iterators import Operator
from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinAttribute, JoinSide, MatchEvent
from repro.joins.engine import SymmetricJoinEngine
from repro.runtime.config import RunConfig
from repro.runtime.session import AdaptiveJoinResult, InputLike, JoinSession

__all__ = [
    "AdaptiveJoinProcessor",
    "AdaptiveJoinResult",
    "AdaptiveSymmetricJoin",
]


class AdaptiveJoinProcessor:
    """Adaptive record-linkage join with a MAR control loop.

    Parameters
    ----------
    left, right:
        The two inputs (tables or streams).  By default the *left* input is
        treated as the parent/reference table of the parent-child
        expectation (Sec. 3.2); see ``parent_side``.
    attribute:
        Join attribute name (same on both sides) or a
        :class:`~repro.joins.base.JoinAttribute`.
    thresholds:
        The tuning parameters of Table 3; defaults to the paper's operating
        point.
    parent_size:
        ``|R|``, the expected size of the parent table.  If omitted it is
        resolved from the parent input when it is sized (a table or a
        bounded stream); for true streams the caller must provide the
        estimate (see :meth:`RunConfig.resolve_parent_size`).
    parent_side:
        Which input plays the parent role (default left).
    initial_state:
        Processor state at start; ``None`` (the default) lets the policy
        choose (``lex/rex`` for MAR, the optimistic choice).
    allow_source_identification:
        Forwarded to the responder; False restricts the machine to the two
        symmetric states (ablation).
    cost_budget:
        Optional :class:`~repro.core.budget.CostBudget` capping the weighted
        execution cost.  Once the budget is exhausted (checked at every
        control-loop activation) the processor is pinned to ``lex/rex`` for
        the remainder of the run — the user-controlled completeness/cost
        knob the paper's conclusions call for.
    cost_model:
        Cost model used to account the budget (paper weights by default).
    policy:
        Name of the registered switch policy to drive the run (default
        ``"mar"``, the paper's control loop; see
        :mod:`repro.runtime.policy`).
    """

    def __init__(
        self,
        left: InputLike,
        right: InputLike,
        attribute: Union[str, JoinAttribute],
        thresholds: Optional[Thresholds] = None,
        parent_size: Optional[int] = None,
        parent_side: JoinSide = JoinSide.LEFT,
        initial_state: Optional[JoinState] = None,
        allow_source_identification: bool = True,
        cost_budget: Optional[CostBudget] = None,
        cost_model: Optional[CostModel] = None,
        policy: str = "mar",
    ) -> None:
        config = RunConfig(
            thresholds=thresholds or Thresholds(),
            policy=policy,
            parent_side=parent_side,
            parent_size=parent_size,
            initial_state=initial_state,
            allow_source_identification=allow_source_identification,
            cost_budget=cost_budget,
            cost_model=cost_model or CostModel(),
        )
        self.session = JoinSession(left, right, attribute, config)

    # -- configuration views --------------------------------------------------------

    @property
    def config(self) -> RunConfig:
        """The declarative configuration the session was built from."""
        return self.session.config

    @property
    def thresholds(self) -> Thresholds:
        """The tuning parameters of Table 3."""
        return self.session.config.thresholds

    @property
    def attribute(self) -> JoinAttribute:
        """The join attribute pair."""
        return self.session.attribute

    @property
    def parent_side(self) -> JoinSide:
        """Which input plays the parent role."""
        return self.session.config.parent_side

    @property
    def parent_size(self) -> int:
        """``|R|``, the resolved parent-table size."""
        return self.session.parent_size

    @property
    def cost_budget(self) -> Optional[CostBudget]:
        """The effective cost budget, if any."""
        return self.session.cost_budget

    @property
    def cost_model(self) -> CostModel:
        """The cost model used for budget accounting."""
        return self.session.config.cost_model

    # -- component views (kept for introspection and tests) --------------------------

    @property
    def engine(self) -> SymmetricJoinEngine:
        """The underlying switchable symmetric-join engine."""
        return self.session.engine

    @property
    def monitor(self) -> Monitor:
        """The monitor observing the run."""
        return self.session.monitor

    @property
    def state_machine(self) -> StateMachine:
        """The four-state machine tracking the processor configuration."""
        return self.session.state_machine

    @property
    def trace(self) -> ExecutionTrace:
        """The execution trace accumulated so far."""
        return self.session.trace

    @property
    def assessor(self):
        """The MAR assessor (``None`` for policies without one)."""
        return getattr(self.session.policy, "assessor", None)

    @property
    def responder(self):
        """The MAR responder (``None`` for policies without one)."""
        return getattr(self.session.policy, "responder", None)

    # -- state ---------------------------------------------------------------------

    @property
    def state(self) -> JoinState:
        """Current processor state."""
        return self.session.state

    @property
    def output_schema(self) -> Schema:
        """Schema of the joined output records."""
        return self.session.output_schema

    @property
    def matches(self) -> Tuple[MatchEvent, ...]:
        """Matched pairs produced so far (immutable snapshot).

        Each access copies the accumulator (O(matches so far)); callers
        polling per step should read :attr:`match_count` instead.
        """
        return self.session.matches

    @property
    def match_count(self) -> int:
        """Number of matched pairs produced so far (no snapshot cost)."""
        return self.session.match_count

    @property
    def finished(self) -> bool:
        """True once both inputs have been drained."""
        return self.session.finished

    @property
    def budget_exhausted(self) -> bool:
        """Whether the cost budget (if any) has been used up."""
        return self.session.budget_exhausted

    # -- execution ------------------------------------------------------------------

    def step(self) -> Optional[List[MatchEvent]]:
        """Execute one join step followed (when due) by one control-loop activation.

        Returns the match events produced by the step, or ``None`` when the
        join has finished.
        """
        return self.session.step()

    def run(self) -> AdaptiveJoinResult:
        """Run the join to completion and return the full result."""
        return self.session.run()


class AdaptiveSymmetricJoin(Operator):
    """Iterator-protocol wrapper around :class:`AdaptiveJoinProcessor`.

    Lets the adaptive join participate in ordinary pipelined plans: each
    ``next_record`` call advances the underlying processor until a match is
    available and returns the joined record.
    """

    def __init__(
        self,
        left: InputLike,
        right: InputLike,
        attribute: Union[str, JoinAttribute],
        thresholds: Optional[Thresholds] = None,
        parent_size: Optional[int] = None,
        parent_side: JoinSide = JoinSide.LEFT,
        policy: str = "mar",
        name: str = "",
    ) -> None:
        self._processor = AdaptiveJoinProcessor(
            left,
            right,
            attribute,
            thresholds=thresholds,
            parent_size=parent_size,
            parent_side=parent_side,
            policy=policy,
        )
        super().__init__(self._processor.output_schema, name=name or "AdaptiveJoin")
        self._pending: Deque[MatchEvent] = deque()

    @property
    def processor(self) -> AdaptiveJoinProcessor:
        """The wrapped adaptive processor (for inspection after the run)."""
        return self._processor

    def _do_open(self) -> None:
        self._pending.clear()

    def _do_next(self) -> Optional[Record]:
        while not self._pending:
            matches = self._processor.step()
            if matches is None:
                return None
            self._pending.extend(matches)
        event = self._pending.popleft()
        return event.output_record(self.output_schema)

    def is_quiescent(self) -> bool:
        """Quiescent iff no produced-but-unreturned matches are pending."""
        return not self._pending
