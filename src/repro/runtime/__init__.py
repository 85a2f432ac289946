"""The layered runtime: sessions, switch policies and the event bus.

This package is the composition layer between the switchable join engine
(:mod:`repro.joins`) and every consumer (``AdaptiveJoinProcessor``,
``link_tables``, the bench harness, the CLI):

* :mod:`repro.runtime.config` — :class:`RunConfig`, one frozen dataclass
  describing an execution (thresholds, parent role, budget, engine knobs);
* :mod:`repro.runtime.session` — :class:`JoinSession`, which builds the
  engine + control stack from a config and drives it to completion;
* :mod:`repro.runtime.policy` — the :class:`SwitchPolicy` protocol and the
  ``@register_policy`` registry (``"mar"``, ``"fixed"``,
  ``"budget-greedy"``);
* :mod:`repro.runtime.events` — the :class:`EventBus` the engine and the
  policies publish step / match / switch / transition events onto;
* :mod:`repro.runtime.collectors` — optional ready-made subscribers;
* :mod:`repro.runtime.sharding` — the two partitioners (``hash`` and
  the prefix-gram-replicated ``gram-prefix``),
  :class:`ShardPlan` and the mergeable, duplicate-free
  :class:`ShardedJoinResult`;
* :mod:`repro.runtime.parallel` — :class:`ParallelExecutor` with the
  ``serial`` / ``process`` backends and the
  :class:`AggregatedEventBus` that fans shard events back into one
  observer stream;
* :mod:`repro.runtime.failures` — the :class:`FailurePolicy` registry
  (``fail-fast`` / ``retry`` / ``degrade``) deciding what a shard
  failure does to the run;
* :mod:`repro.runtime.faults` — the deterministic fault-injection
  harness (:class:`FaultPlan`) tests, benchmarks and the CI smoke use;
* :mod:`repro.runtime.errors` — the structured shard failure types
  (:class:`ShardExecutionError`, :class:`ShardTimeoutError`).

Exports are resolved lazily (PEP 562) so low-level modules — e.g.
:mod:`repro.joins.engine`, which publishes onto the bus — can import
``repro.runtime.events`` without dragging the whole session stack (and an
import cycle) in.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from repro.runtime.collectors import (
        MatchTap,
        ProgressCollector,
        ProgressSnapshot,
        StateDwellCollector,
        SwitchLog,
        ThroughputCollector,
    )
    from repro.runtime.config import RunConfig, input_size
    from repro.runtime.errors import (
        ShardError,
        ShardExecutionError,
        ShardTimeoutError,
    )
    from repro.core.events import AssessmentEvent, TransitionEvent
    from repro.runtime.events import (
        EventBus,
        ShardCompleted,
        ShardEvent,
        ShardFailed,
        ShardRetrying,
    )
    from repro.runtime.failures import (
        DegradePolicy,
        FailFastPolicy,
        FailurePolicy,
        RetryPolicy,
        ShardFailure,
        available_failure_policies,
        create_failure_policy,
        register_failure_policy,
    )
    from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFaultError
    from repro.runtime.parallel import (
        AggregatedEventBus,
        FailureContext,
        ParallelExecutor,
        available_backends,
        run_sharded,
    )
    from repro.runtime.policy import (
        BudgetGreedyPolicy,
        DeadlinePolicy,
        FixedStatePolicy,
        MarPolicy,
        SwitchPolicy,
        available_policies,
        create_policy,
        register_policy,
    )
    from repro.runtime.session import AdaptiveJoinResult, JoinSession
    from repro.runtime.sharding import (
        HashPartitioner,
        Partitioner,
        ShardedJoinResult,
        ShardOutcome,
        ShardPlan,
        available_partitioners,
        create_partitioner,
    )

_EXPORTS = {
    "RunConfig": "repro.runtime.config",
    "input_size": "repro.runtime.config",
    "EventBus": "repro.runtime.events",
    "TransitionEvent": "repro.core.events",
    "AssessmentEvent": "repro.core.events",
    "SwitchPolicy": "repro.runtime.policy",
    "MarPolicy": "repro.runtime.policy",
    "FixedStatePolicy": "repro.runtime.policy",
    "BudgetGreedyPolicy": "repro.runtime.policy",
    "DeadlinePolicy": "repro.runtime.policy",
    "register_policy": "repro.runtime.policy",
    "create_policy": "repro.runtime.policy",
    "available_policies": "repro.runtime.policy",
    "JoinSession": "repro.runtime.session",
    "AdaptiveJoinResult": "repro.runtime.session",
    "MatchTap": "repro.runtime.collectors",
    "SwitchLog": "repro.runtime.collectors",
    "StateDwellCollector": "repro.runtime.collectors",
    "ThroughputCollector": "repro.runtime.collectors",
    "ProgressCollector": "repro.runtime.collectors",
    "ProgressSnapshot": "repro.runtime.collectors",
    "Partitioner": "repro.runtime.sharding",
    "HashPartitioner": "repro.runtime.sharding",
    "create_partitioner": "repro.runtime.sharding",
    "available_partitioners": "repro.runtime.sharding",
    "ShardPlan": "repro.runtime.sharding",
    "ShardOutcome": "repro.runtime.sharding",
    "ShardedJoinResult": "repro.runtime.sharding",
    "ParallelExecutor": "repro.runtime.parallel",
    "run_sharded": "repro.runtime.parallel",
    "available_backends": "repro.runtime.parallel",
    "AggregatedEventBus": "repro.runtime.parallel",
    "ShardEvent": "repro.runtime.events",
    "ShardCompleted": "repro.runtime.events",
    "ShardFailed": "repro.runtime.events",
    "ShardRetrying": "repro.runtime.events",
    "FailurePolicy": "repro.runtime.failures",
    "FailFastPolicy": "repro.runtime.failures",
    "RetryPolicy": "repro.runtime.failures",
    "DegradePolicy": "repro.runtime.failures",
    "ShardFailure": "repro.runtime.failures",
    "register_failure_policy": "repro.runtime.failures",
    "create_failure_policy": "repro.runtime.failures",
    "available_failure_policies": "repro.runtime.failures",
    "FaultPlan": "repro.runtime.faults",
    "FaultSpec": "repro.runtime.faults",
    "InjectedFaultError": "repro.runtime.faults",
    "ShardError": "repro.runtime.errors",
    "ShardExecutionError": "repro.runtime.errors",
    "ShardTimeoutError": "repro.runtime.errors",
    "FailureContext": "repro.runtime.parallel",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
