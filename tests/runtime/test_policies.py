"""Tests for the switch-policy registry and the non-MAR policies."""

import pytest

from repro.core.budget import CostBudget
from repro.core.cost_model import CostModel
from repro.core.state_machine import JoinState
from repro.core.thresholds import Thresholds
from repro.runtime.config import RunConfig
from repro.runtime.policy import (
    BudgetGreedyPolicy,
    FixedStatePolicy,
    MarPolicy,
    SwitchPolicy,
    available_policies,
    create_policy,
    register_policy,
)
from repro.runtime.session import JoinSession

FAST = Thresholds(delta_adapt=25, window_size=25)


class TestRegistry:
    def test_builtin_policies_registered(self):
        names = available_policies()
        assert "mar" in names
        assert "fixed" in names
        assert "budget-greedy" in names

    def test_create_policy_by_name(self):
        assert isinstance(create_policy("mar"), MarPolicy)
        assert isinstance(create_policy("fixed"), FixedStatePolicy)
        assert isinstance(create_policy("budget-greedy"), BudgetGreedyPolicy)

    def test_unknown_policy_error_lists_registered_names(self):
        with pytest.raises(ValueError, match="mar"):
            create_policy("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):

            @register_policy("mar")
            class Clash(SwitchPolicy):  # pragma: no cover - never instantiated
                pass

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_policy("")

    def test_policy_instances_are_single_use(self, small_dataset):
        policy = create_policy("fixed")
        JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            policy=policy,
        )
        with pytest.raises(RuntimeError, match="already bound"):
            JoinSession(
                small_dataset.parent,
                small_dataset.child,
                "location",
                RunConfig.from_thresholds(FAST),
                policy=policy,
            )


class TestFixedStatePolicy:
    def test_defaults_to_all_exact_and_never_switches(self, small_dataset):
        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST, policy="fixed"),
        )
        result = session.run()
        assert result.final_state is JoinState.LEX_REX
        assert result.trace.transition_count == 0
        assert result.trace.exact_step_fraction() == 1.0

    def test_fixed_approximate_reproduces_the_completeness_ceiling(
        self, small_dataset
    ):
        from repro.joins.sshjoin import SSHJoin

        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(
                FAST, policy="fixed", initial_state=JoinState.LAP_RAP
            ),
        )
        result = session.run()
        approx = SSHJoin(
            small_dataset.parent,
            small_dataset.child,
            "location",
            similarity_threshold=FAST.theta_sim,
        )
        approx.run()
        assert set(result.matched_pairs()) == set(approx.engine._emitted_pairs)
        assert result.trace.transition_count == 0

    def test_fixed_hybrid_state(self, small_dataset):
        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(
                FAST, policy="fixed", initial_state=JoinState.LEX_RAP
            ),
        )
        result = session.run()
        assert result.final_state is JoinState.LEX_RAP
        assert result.trace.steps_per_state[JoinState.LEX_RAP] == (
            result.trace.total_steps
        )


class TestBudgetGreedyPolicy:
    def test_without_budget_stays_approximate(self, small_dataset):
        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST, policy="budget-greedy"),
        )
        result = session.run()
        assert result.final_state is JoinState.LAP_RAP
        assert result.trace.transition_count == 0
        assert not session.budget_exhausted

    def test_tight_budget_pins_to_exact(self, small_dataset):
        total_steps = len(small_dataset.parent) + len(small_dataset.child)
        model = CostModel()
        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(
                FAST, policy="budget-greedy", budget_fraction=0.2, cost_model=model
            ),
        )
        result = session.run()
        assert session.budget_exhausted
        assert result.final_state is JoinState.LEX_REX
        assert result.trace.transition_count == 1
        # The budget can only be overshot by the cost accrued within one
        # assessment interval after exhaustion is detected.
        budget = CostBudget.relative(0.2, total_steps, model)
        slack = FAST.delta_adapt * model.state_weights[JoinState.LAP_RAP]
        assert result.weighted_cost(model) <= budget.max_absolute_cost + slack

    def test_explicit_initial_state_wins_over_the_greedy_default(
        self, small_dataset
    ):
        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(
                FAST, policy="budget-greedy", initial_state=JoinState.LEX_REX
            ),
        )
        assert session.initial_state is JoinState.LEX_REX
        # Without a budget there is nothing to spend down: the explicitly
        # configured state is kept for the whole run, never overridden.
        result = session.run()
        assert result.final_state is JoinState.LEX_REX
        assert result.trace.transition_count == 0

    def test_budgeted_greedy_stays_between_the_baselines(self, small_dataset):
        """Exact matches survive the pin to lex/rex; the ceiling still holds."""
        from repro.joins.shjoin import SHJoin
        from repro.joins.sshjoin import SSHJoin

        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(
                FAST, policy="budget-greedy", budget_fraction=0.3
            ),
        )
        result = session.run()
        exact = SHJoin(small_dataset.parent, small_dataset.child, "location")
        exact.run()
        approx = SSHJoin(
            small_dataset.parent,
            small_dataset.child,
            "location",
            similarity_threshold=FAST.theta_sim,
        )
        approx.run()
        pairs = set(result.matched_pairs())
        assert set(exact.engine._emitted_pairs).issubset(pairs)
        assert pairs.issubset(set(approx.engine._emitted_pairs))


class TestActivationBoundaries:
    def test_irregular_cadence_activates_identically_under_run_and_step(
        self, small_dataset
    ):
        """next_activation_step makes run() honour non-δ-aligned policies."""

        class OneShot(SwitchPolicy):
            """Force lap/rap at step 137 (not a multiple of delta_adapt=25)."""

            trigger = 137

            def next_activation_step(self, step_count):
                return self.trigger if step_count < self.trigger else None

            def activate(self, step):
                self.session.force_state(JoinState.LAP_RAP, step)

        def build(policy):
            return JoinSession(
                small_dataset.parent,
                small_dataset.child,
                "location",
                RunConfig.from_thresholds(FAST),
                policy=policy,
            )

        batched = build(OneShot())
        batched_result = batched.run()

        stepped = build(OneShot())
        while not stepped.finished:
            stepped.step()
        stepped_result = stepped.result()

        for result in (batched_result, stepped_result):
            assert result.trace.transition_count == 1
            assert result.trace.transitions[0].step == OneShot.trigger
        assert batched_result.matched_pairs() == stepped_result.matched_pairs()
        assert (
            batched_result.trace.steps_per_state
            == stepped_result.trace.steps_per_state
        )

    @pytest.mark.parametrize(
        "advance",
        [JoinSession.run, JoinSession.step],
        ids=["run", "single-step"],
    )
    def test_bad_boundary_from_a_policy_is_rejected(self, small_dataset, advance):
        class Stuck(SwitchPolicy):
            def next_activation_step(self, step_count):
                return step_count  # never ahead of the engine

        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
            policy=Stuck(),
        )
        with pytest.raises(ValueError, match="next_activation_step"):
            advance(session)


class TestUnsizedStreams:
    def test_fixed_policy_runs_over_unsized_streams(self, small_dataset):
        from repro.engine.streams import IteratorStream

        parent = IteratorStream(
            small_dataset.parent.schema, iter(small_dataset.parent.records)
        )
        child = IteratorStream(
            small_dataset.child.schema, iter(small_dataset.child.records)
        )
        session = JoinSession(
            parent, child, "location", RunConfig.from_thresholds(FAST, policy="fixed")
        )
        result = session.run()
        assert result.trace.total_steps == len(small_dataset.parent) + len(
            small_dataset.child
        )
        # |R| was never needed, so it was never resolved — and asking for
        # it now still raises the explicit error.
        with pytest.raises(ValueError, match="parent_size"):
            session.parent_size

    def test_mar_policy_still_requires_parent_size_up_front(self, small_dataset):
        from repro.engine.streams import IteratorStream

        parent = IteratorStream(
            small_dataset.parent.schema, iter(small_dataset.parent.records)
        )
        child = IteratorStream(
            small_dataset.child.schema, iter(small_dataset.child.records)
        )
        with pytest.raises(ValueError, match="parent_size"):
            JoinSession(parent, child, "location", RunConfig.from_thresholds(FAST))


class TestMarPolicyThroughSessions:
    def test_mar_exposes_assessor_and_responder(self, small_dataset):
        session = JoinSession(
            small_dataset.parent,
            small_dataset.child,
            "location",
            RunConfig.from_thresholds(FAST),
        )
        assert isinstance(session.policy, MarPolicy)
        assert session.policy.assessor is not None
        assert session.policy.responder is not None
        assert session.policy.assessor.model.parent_size == len(
            small_dataset.parent
        )

    def test_policy_name_on_instances(self):
        assert create_policy("mar").name == "mar"
        assert create_policy("fixed").name == "fixed"
        assert create_policy("budget-greedy").name == "budget-greedy"
