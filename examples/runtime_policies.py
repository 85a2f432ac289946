#!/usr/bin/env python3
"""The layered runtime: sessions, switch policies and the event bus.

This example drives the *same* generated workload through three registered
switch policies (``mar``, ``fixed``, ``budget-greedy``), attaches live
event-bus collectors to one run, and registers a tiny custom policy — all
without touching the execution loop.  See ARCHITECTURE.md for the layer
diagram.

Run with::

    python examples/runtime_policies.py
"""

from __future__ import annotations

from repro import EventBus, JoinSession, RunConfig, Thresholds, register_policy
from repro.core.state_machine import JoinState
from repro.datagen.testcases import TestCaseSpec, generate_test_case
from repro.runtime.collectors import MatchTap, SwitchLog
from repro.runtime.policy import SwitchPolicy

THRESHOLDS = Thresholds(delta_adapt=50, window_size=50)


@register_policy("after-1000")
class AfterStep1000Policy(SwitchPolicy):
    """Custom demo policy: go all-approximate unconditionally at step 1000.

    ``next_activation_step`` declares the one-shot boundary, so the session
    pauses there and activates the policy even though 1000 need not be a
    multiple of ``δ_adapt``.
    """

    def next_activation_step(self, step_count: int):
        return 1000 if step_count < 1000 else None

    def activate(self, step: int) -> None:
        self.session.force_state(JoinState.LAP_RAP, step)


def main() -> None:
    dataset = generate_test_case(
        TestCaseSpec(
            name="runtime_demo",
            pattern="few_high",
            variants_in="child",
            parent_size=600,
            child_size=1200,
            seed=7,
        )
    )
    print(
        f"workload: {len(dataset.parent)} parent rows, "
        f"{len(dataset.child)} child rows, "
        f"{dataset.child_variant_count} child variants\n"
    )

    # One declarative config per policy; everything else is shared.
    for policy in ("mar", "fixed", "budget-greedy", "after-1000"):
        config = RunConfig.from_thresholds(
            THRESHOLDS,
            policy=policy,
            budget_fraction=0.4 if policy == "budget-greedy" else None,
        )
        session = JoinSession(dataset.parent, dataset.child, "location", config)
        result = session.run()
        occupancy = {
            state.short_label: steps
            for state, steps in result.trace.steps_per_state.items()
            if steps
        }
        print(
            f"{policy:>14}: {result.result_size:4d} pairs, "
            f"{result.trace.transition_count} transitions, "
            f"final={result.final_state.label}, steps={occupancy}"
        )

    # Observers are bus subscribers: attach collectors, run, read them off.
    bus = EventBus()
    tap = MatchTap().attach(bus)
    switches = SwitchLog().attach(bus)
    session = JoinSession(
        dataset.parent,
        dataset.child,
        "location",
        RunConfig.from_thresholds(THRESHOLDS),
        bus=bus,
    )
    result = session.run()
    print(
        f"\nevent bus: {len(tap.events)} match events "
        f"({tap.approximate_count} via the approximate operator), "
        f"{len(switches.records)} operator switches re-indexing "
        f"{switches.total_catch_up_tuples} tuples"
    )
    assert len(tap.events) == result.result_size


if __name__ == "__main__":
    main()
