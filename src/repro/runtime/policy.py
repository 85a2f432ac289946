"""Pluggable switch policies for the adaptive runtime.

The paper's contribution is *one* policy for deciding when to switch the
per-side join operators: the Monitor-Assess-Respond loop of Sec. 3.  The
runtime layer generalises that decision into a :class:`SwitchPolicy`
interface with a name registry, so new trade-off strategies plug in
without touching the session loop:

``"mar"`` (:class:`MarPolicy`, the default)
    The paper's control loop — assessor predicates σ/µ/π, responder guards
    φ_0..φ_3, optional cost-budget pinning.  Bit-identical to the
    pre-runtime ``AdaptiveJoinProcessor`` behaviour (enforced by
    ``tests/runtime/test_policy_equivalence.py``).

``"fixed"`` (:class:`FixedStatePolicy`)
    Never switches: the run stays in its initial state.  This subsumes the
    non-adaptive baselines (all-exact = fixed @ ``lex/rex``,
    all-approximate = fixed @ ``lap/rap``) and the "no adaptation"
    ablation, all through the same session machinery.

``"budget-greedy"`` (:class:`BudgetGreedyPolicy`)
    Greedy completeness under a cost cap: pin to the all-approximate state
    while budget headroom remains, then drop to all-exact for the rest of
    the run.  A deliberately simple foil to MAR for the budget trade-off
    benchmarks.

``"deadline"`` (:class:`DeadlinePolicy`)
    Meet a wall-clock budget (``RunConfig.deadline_seconds``): run
    approximate while the projected completion time under the cost model
    stays inside the budget, pin to all-exact the first time it does not.
    A one-shot trigger with an irregular cadence — after pinning it
    declares no further activation boundaries.

Registering a policy::

    from repro.runtime import SwitchPolicy, register_policy

    @register_policy("mine")
    class MyPolicy(SwitchPolicy):
        def activate(self, step): ...

and every entry point (``JoinSession``, ``link_tables``, the bench
harness, ``repro link --policy mine``) can select it by name.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from repro.core.assessor import Assessor
from repro.core.events import AssessmentEvent, TransitionEvent
from repro.core.responder import Responder
from repro.core.state_machine import JoinState
from repro.runtime.config import RunConfig


class SwitchPolicy:
    """Decides when and how a session switches its per-side join operators.

    A policy is bound to exactly one
    :class:`~repro.runtime.session.JoinSession` via :meth:`bind` (called by
    the session at build time) and is consulted by the session loop:
    :meth:`next_activation_step` names the next step at which the policy
    wants control, and :meth:`activate` runs once the engine reaches it.
    Activations happen between engine steps — i.e. in a quiescent state —
    so enacting a transition is always safe.
    """

    #: Registry name, filled in by :func:`register_policy`.
    name: str = ""

    def __init__(self) -> None:
        self.session = None

    # -- lifecycle ---------------------------------------------------------------

    def resolve_initial_state(self, config: RunConfig) -> JoinState:
        """The state the session should start in under this policy.

        An explicit ``config.initial_state`` always wins; otherwise the
        policy picks its natural starting point (``lex/rex`` by default,
        the paper's optimistic choice).  Called before :meth:`bind`, so
        implementations may only rely on the policy's own construction
        parameters and ``config``.
        """
        return config.initial_state or JoinState.LEX_REX

    def bind(self, session) -> None:
        """Attach the policy to its session (called once, at session build)."""
        if self.session is not None:
            raise RuntimeError(
                f"policy {self.name or type(self).__name__!r} is already bound "
                "to a session; create a fresh instance per run"
            )
        self.session = session

    # -- the decision interface -----------------------------------------------------

    @property
    def activation_interval(self) -> int:
        """Steps between the default activation boundaries.

        Defaults to the ``δ_adapt`` of the bound session's thresholds.
        """
        return self.session.config.thresholds.delta_adapt

    def next_activation_step(self, step_count: int) -> Optional[int]:
        """The next step after ``step_count`` at which this policy wants control.

        The session never drives the engine past this boundary within one
        batch and calls :meth:`activate` exactly when a batch ends on it,
        so batched ``run()`` and single-stepping hand control to the policy
        at the same steps, for *any* cadence.  The boundary must lie after
        ``step_count``; ``None`` means "never again" (the remaining input
        runs in maximal batches).

        The default boundary is the next multiple of
        :attr:`activation_interval`; policies with an irregular schedule
        (a one-shot trigger, adaptive cadence, …) override this.
        """
        interval = self.activation_interval
        return step_count + (interval - step_count % interval)

    def activate(self, step: int) -> None:
        """One policy activation: may switch the engine via the session."""
        raise NotImplementedError


# -- registry -------------------------------------------------------------------------

_POLICIES: Dict[str, Callable[[], SwitchPolicy]] = {}


def register_policy(name: str):
    """Class decorator registering a :class:`SwitchPolicy` under ``name``."""
    if not name:
        raise ValueError("policy name must be non-empty")

    def decorate(cls):
        if name in _POLICIES:
            raise ValueError(f"policy {name!r} is already registered")
        _POLICIES[name] = cls
        cls.name = name
        return cls

    return decorate


def create_policy(name: str) -> SwitchPolicy:
    """Instantiate the policy registered under ``name``."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown switch policy {name!r}; registered: {available_policies()}"
        ) from None
    return factory()


def available_policies() -> Tuple[str, ...]:
    """Names of all registered policies, sorted."""
    return tuple(sorted(_POLICIES))


# -- the paper's policy ----------------------------------------------------------------


@register_policy("mar")
class MarPolicy(SwitchPolicy):
    """The paper's Monitor-Assess-Respond control loop (Sec. 3).

    Every ``δ_adapt`` steps the assessor evaluates the σ/µ/π predicates
    over the monitor's observation, the responder maps them onto the
    φ_0..φ_3 guards of the four-state machine and enacts the selected
    transition.  When the session carries a cost budget, exhaustion is
    checked first and overrides the responder: the processor is pinned to
    ``lex/rex`` for the remainder of the run (Sec. 4.4's user-controlled
    completeness/cost knob).
    """

    def __init__(self) -> None:
        super().__init__()
        self.assessor: Optional[Assessor] = None
        self.responder: Optional[Responder] = None
        self._budget_exhausted = False

    def bind(self, session) -> None:
        super().bind(session)
        config = session.config
        self.assessor = Assessor(
            thresholds=config.thresholds,
            parent_size=session.parent_size,
            parent_side=config.parent_side,
        )
        self.responder = Responder(
            session.state_machine,
            allow_source_identification=config.allow_source_identification,
        )

    @property
    def budget_exhausted(self) -> bool:
        """Whether the session's cost budget (if any) has been used up."""
        return self._budget_exhausted

    def activate(self, step: int) -> None:
        session = self.session
        budget = session.cost_budget
        if budget is not None and not self._budget_exhausted:
            if budget.exhausted(session.trace, session.config.cost_model):
                self._budget_exhausted = True
        if self._budget_exhausted:
            # The user-imposed cost cap overrides the responder: pin the
            # processor to the cheap all-exact configuration.
            session.force_state(JoinState.LEX_REX, step)
            return
        observation = session.monitor.observation()
        assessment = self.assessor.assess(observation)
        state_before = session.state_machine.state
        guards, new_state, switches = self.responder.respond(
            assessment, session.engine
        )
        state_after = session.state_machine.state
        session.bus.publish(
            AssessmentEvent(assessment, guards, state_before, state_after)
        )
        if new_state is not None:
            session.bus.publish(
                TransitionEvent(step, state_before, new_state, tuple(switches))
            )


# -- non-adaptive and budget-first policies --------------------------------------------


@register_policy("fixed")
class FixedStatePolicy(SwitchPolicy):
    """Never switch: the run stays in its initial state end to end.

    With ``initial_state=lex/rex`` this is the all-exact baseline, with
    ``lap/rap`` the all-approximate one, and with a hybrid state a frozen
    asymmetric configuration — all driven through the same session loop,
    trace and event stream as the adaptive runs, which makes baseline and
    adaptive measurements directly comparable.
    """

    def next_activation_step(self, step_count: int) -> Optional[int]:
        return None  # no boundaries: the session drains in maximal batches

    def activate(self, step: int) -> None:  # pragma: no cover - never reached
        raise AssertionError("FixedStatePolicy never activates")


@register_policy("budget-greedy")
class BudgetGreedyPolicy(SwitchPolicy):
    """Spend the budget on completeness first, then run out the clock exactly.

    Starts in ``lap/rap`` (unless an explicit initial state is configured)
    and, while the session carries a cost budget, enforces the greedy
    target at every activation: ``lap/rap`` while the budget has headroom,
    pinned to ``lex/rex`` from the first activation that finds it
    exhausted.  Without a budget the policy never switches at all — the
    run simply stays in its initial state (the completeness ceiling when
    that is the ``lap/rap`` default).

    The check fires every ``δ_adapt`` steps, so like MAR the budget can be
    overshot by at most one assessment interval's worth of cost.
    """

    def __init__(self) -> None:
        super().__init__()
        self._budget_exhausted = False

    def resolve_initial_state(self, config: RunConfig) -> JoinState:
        return config.initial_state or JoinState.LAP_RAP

    @property
    def budget_exhausted(self) -> bool:
        """Whether the session's cost budget (if any) has been used up."""
        return self._budget_exhausted

    def activate(self, step: int) -> None:
        session = self.session
        budget = session.cost_budget
        if budget is None:
            return  # nothing to spend down: respect the configured state
        if not self._budget_exhausted and budget.exhausted(
            session.trace, session.config.cost_model
        ):
            self._budget_exhausted = True
        target = JoinState.LEX_REX if self._budget_exhausted else JoinState.LAP_RAP
        session.force_state(target, step)


@register_policy("deadline")
class DeadlinePolicy(SwitchPolicy):
    """Meet a wall-clock budget: go exact once the projection says we won't.

    Starts all-approximate (unless an explicit initial state is
    configured) and, every ``δ_adapt`` steps, projects the run's
    completion time: the observed seconds-per-weighted-cost-unit so far
    (wall time elapsed over the trace's ``c_abs`` under the session's
    cost model) times the cost of finishing the remaining steps *in the
    current state*.  The first activation whose projection exceeds the
    wall budget pins the processor to ``lex/rex`` for the rest of the
    run — the cheapest way to still finish — after which the policy
    declares no further activation boundaries
    (:meth:`next_activation_step` returns ``None``), so the session
    drains the remaining input in maximal batches.  The cost of the
    pinning transition itself is below one step's noise and is not
    projected.

    The wall budget comes from the constructor (parameterised instances
    passed straight to :class:`~repro.runtime.session.JoinSession`) or
    from ``config.deadline_seconds`` when created by name through the
    registry; the clock starts at :meth:`bind` (session construction,
    which every entry point follows immediately with ``run()``).  Needs
    sized inputs to know the remaining step count — like MAR, it fails
    fast on unsized streams.

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        super().__init__()
        self._deadline_override = deadline_seconds
        self._clock = clock
        self.deadline_seconds: Optional[float] = None
        self._total_steps = 0
        self._started = 0.0
        self._pinned = False

    def resolve_initial_state(self, config: RunConfig) -> JoinState:
        return config.initial_state or JoinState.LAP_RAP

    def bind(self, session) -> None:
        super().bind(session)
        deadline = (
            self._deadline_override
            if self._deadline_override is not None
            else session.config.deadline_seconds
        )
        if deadline is None:
            raise ValueError(
                "the deadline policy needs a wall budget: pass "
                "deadline_seconds= to RunConfig (or construct "
                "DeadlinePolicy(deadline_seconds=...) directly)"
            )
        if deadline <= 0:
            raise ValueError(f"deadline_seconds must be positive, got {deadline}")
        if session.total_steps is None:
            raise ValueError(
                "the deadline policy projects the remaining work from the "
                "input sizes, but at least one input is an unsized stream"
            )
        self.deadline_seconds = deadline
        self._total_steps = session.total_steps
        self._started = self._clock()

    @property
    def deadline_exceeded(self) -> bool:
        """Whether the projection tripped and the run was pinned to exact."""
        return self._pinned

    def next_activation_step(self, step_count: int) -> Optional[int]:
        if self._pinned:
            return None  # one-shot trigger fired: drain in maximal batches
        return super().next_activation_step(step_count)

    def activate(self, step: int) -> None:
        session = self.session
        elapsed = self._clock() - self._started
        model = session.config.cost_model
        cost_so_far = model.absolute_cost(session.trace)
        if cost_so_far <= 0 or elapsed <= 0:
            return  # nothing measured yet: no basis for a projection
        seconds_per_unit = elapsed / cost_so_far
        remaining_steps = max(self._total_steps - step, 0)
        stay_cost = remaining_steps * model.state_weights[session.state]
        projected_completion = elapsed + stay_cost * seconds_per_unit
        if projected_completion > self.deadline_seconds:
            self._pinned = True
            session.force_state(JoinState.LEX_REX, step)
