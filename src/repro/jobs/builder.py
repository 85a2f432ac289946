"""The fluent, validating :class:`LinkageJob` builder.

One job describes one linkage run — inputs, join attribute, strategy and
every execution knob — and compiles, at :meth:`LinkageJob.build` time,
into the runtime layer's frozen :class:`~repro.runtime.config.RunConfig`
plus a :class:`~repro.jobs.handle.JobHandle` that executes it (blocking
or streaming) and can be observed and cancelled mid-run::

    from repro.jobs import LinkageJob

    handle = (
        LinkageJob.between(atlas, accidents)
        .on("location")
        .strategy("adaptive")
        .policy("deadline", seconds=2.0)
        .sharded(8, partitioner="gram-prefix")
        .with_progress()
        .build()
    )
    for match in handle.stream_matches():
        ...                      # matches arrive as they are found
    handle.progress()            # live shards/steps/matches snapshot

Each fluent method validates its arguments immediately (unknown strategy
/ policy / backend / partitioner names, out-of-range thresholds and
shard counts fail at the call site, not deep inside a run), and
:meth:`build` cross-checks the combination — the same rules
:func:`repro.linkage.api.link_tables` used to enforce inline, now stated
once.  A builder can be reused: every :meth:`build` returns an
independent handle over a frozen snapshot of the current settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.thresholds import Thresholds
from repro.engine.streams import InputLike
from repro.joins.base import JoinAttribute, JoinSide
from repro.runtime.config import RunConfig
from repro.runtime.failures import (
    FailurePolicy,
    available_failure_policies,
    create_failure_policy,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.handoff import HANDOFF_MODES
from repro.runtime.parallel import available_backends
from repro.runtime.policy import available_policies
from repro.runtime.sharding import PARTITIONERS, available_partitioners

#: The strategies a linkage job can run (kept in the historical order of
#: :mod:`repro.linkage.api`, which re-exports this tuple).
STRATEGIES = ("exact", "approximate", "adaptive", "blocking")

#: Knobs that only the adaptive strategy consumes; naming one of these
#: explicitly while targeting a baseline strategy is an error, not a
#: silent no-op.  ``progress`` is here because the progress feed rides
#: the session event bus — baseline operators publish nothing, so a
#: baseline "progress" would sit frozen at zero.  ``on_failure`` and
#: ``faults`` ride the sharded execution layer, which only adaptive
#: runs use.
_ADAPTIVE_ONLY = (
    "policy",
    "budget",
    "deadline",
    "config",
    "progress",
    "on_failure",
    "faults",
)


@dataclass(frozen=True)
class JobSpec:
    """The frozen, fully validated description one :class:`JobHandle` runs.

    Produced by :meth:`LinkageJob.build`; ``run_config`` is the compiled
    runtime configuration (``None`` for the baseline strategies, which
    run their dedicated operators instead of a session).
    """

    left: InputLike
    right: InputLike
    attribute: JoinAttribute
    strategy: str
    similarity_threshold: float
    run_config: Optional[RunConfig]
    shards: int
    backend: str
    partitioner: str
    max_workers: Optional[int]
    #: Shard-handoff mode (``auto`` / ``pickle`` / ``shared-memory``),
    #: forwarded to :meth:`~repro.runtime.sharding.ShardPlan.build`.
    handoff: str
    progress_enabled: bool
    failure_policy: Optional[FailurePolicy] = None
    fault_plan: Optional[FaultPlan] = None


class LinkageJob:
    """Fluent builder for linkage jobs (see the module docstring).

    Start with :meth:`between`, chain configuration calls, finish with
    :meth:`build`.  Defaults mirror ``link_tables``: adaptive strategy,
    the paper's operating point, ``θ_sim = 0.85``, unsharded serial
    execution, left input as the parent side.
    """

    def __init__(self, left: InputLike, right: InputLike) -> None:
        if left is None or right is None:
            raise ValueError("a linkage job needs two inputs, got None")
        self._left = left
        self._right = right
        self._attribute: Optional[JoinAttribute] = None
        self._strategy = "adaptive"
        self._similarity_threshold = 0.85
        self._thresholds: Optional[Thresholds] = None
        self._parent_side = JoinSide.LEFT
        self._policy = "mar"
        self._budget: Optional[float] = None
        self._deadline: Optional[float] = None
        self._config: Optional[RunConfig] = None
        self._shards = 1
        self._backend = "serial"
        self._partitioner = "hash"
        self._handoff = "auto"
        self._max_workers: Optional[int] = None
        self._progress = False
        self._failure_policy: Optional[FailurePolicy] = None
        self._faults: Optional[FaultPlan] = None
        #: Adaptive-only knobs the caller named explicitly (so build()
        #: can reject e.g. .strategy("exact").policy("deadline") while
        #: still letting the defaults ride along silently).
        self._explicit: set = set()

    @classmethod
    def between(cls, left: InputLike, right: InputLike) -> "LinkageJob":
        """Start a job over two inputs (tables or record streams)."""
        return cls(left, right)

    # -- the fluent surface ----------------------------------------------------------

    def on(
        self,
        attribute: Union[str, JoinAttribute],
        right_attribute: Optional[str] = None,
    ) -> "LinkageJob":
        """Set the join attribute: one shared name, two per-side names,
        or a ready :class:`~repro.joins.base.JoinAttribute`."""
        if isinstance(attribute, JoinAttribute):
            if right_attribute is not None:
                raise ValueError(
                    "pass either a JoinAttribute or two names, not both"
                )
            self._attribute = attribute
        elif isinstance(attribute, str) and attribute:
            self._attribute = JoinAttribute(
                attribute, right_attribute or attribute
            )
        else:
            raise ValueError(
                f"attribute must be a non-empty name or a JoinAttribute, "
                f"got {attribute!r}"
            )
        return self

    def strategy(self, name: str) -> "LinkageJob":
        """Choose the linkage strategy (one of :data:`STRATEGIES`)."""
        if name not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {name!r}; available: {STRATEGIES}"
            )
        self._strategy = name
        return self

    def threshold(self, theta_sim: float) -> "LinkageJob":
        """Set ``θ_sim``, the similarity threshold (in ``(0, 1]``)."""
        if not 0.0 < theta_sim <= 1.0:
            raise ValueError(
                f"similarity threshold must be in (0, 1], got {theta_sim}"
            )
        self._similarity_threshold = theta_sim
        return self

    def thresholds(self, thresholds: Thresholds) -> "LinkageJob":
        """Set the full adaptive operating point (overrides
        :meth:`threshold` for the adaptive strategy)."""
        if not isinstance(thresholds, Thresholds):
            raise ValueError(
                f"thresholds must be a Thresholds instance, got {thresholds!r}"
            )
        self._thresholds = thresholds
        return self

    def parent(self, side: Union[str, JoinSide]) -> "LinkageJob":
        """Choose which input plays the parent/reference role."""
        self._parent_side = side if isinstance(side, JoinSide) else JoinSide(side)
        return self

    def policy(
        self,
        name: str,
        *,
        budget: Optional[float] = None,
        seconds: Optional[float] = None,
    ) -> "LinkageJob":
        """Choose the switch policy driving the adaptive run.

        ``budget`` is the relative cost budget in ``(0, 1]`` (consumed by
        ``mar`` / ``budget-greedy``); ``seconds`` is the wall-clock
        budget of the ``deadline`` policy.
        """
        if name not in available_policies():
            raise ValueError(
                f"unknown switch policy {name!r}; registered: "
                f"{available_policies()}"
            )
        self._policy = name
        self._explicit.add("policy")
        if budget is not None:
            self.budget(budget)
        if seconds is not None:
            self.deadline(seconds)
        return self

    def budget(self, fraction: float) -> "LinkageJob":
        """Set the relative cost budget (``RunConfig.budget_fraction``)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(
                f"budget_fraction must be in (0, 1], got {fraction}"
            )
        self._budget = fraction
        self._explicit.add("budget")
        return self

    def deadline(self, seconds: float) -> "LinkageJob":
        """Set the wall-clock budget and select the ``deadline`` policy's
        knob (``RunConfig.deadline_seconds``)."""
        if seconds <= 0:
            raise ValueError(f"deadline_seconds must be positive, got {seconds}")
        self._deadline = seconds
        self._explicit.add("deadline")
        return self

    def config(self, run_config: RunConfig) -> "LinkageJob":
        """Provide a complete :class:`RunConfig`, overriding every other
        adaptive knob (thresholds, parent side, policy, budget, deadline)."""
        if not isinstance(run_config, RunConfig):
            raise ValueError(
                f"config must be a RunConfig instance, got {run_config!r}"
            )
        self._config = run_config
        self._explicit.add("config")
        return self

    def sharded(
        self,
        shards: int,
        backend: Optional[str] = None,
        partitioner: Optional[str] = None,
        max_workers: Optional[int] = None,
        handoff: Optional[str] = None,
    ) -> "LinkageJob":
        """Split the run into ``shards`` partitioned sessions on ``backend``.

        ``backend`` is an execution backend (``serial`` or ``process``),
        ``partitioner`` ``hash`` or ``gram-prefix``, ``handoff`` the shard-input
        representation (``auto`` — the default — / ``pickle`` /
        ``shared-memory``; see :mod:`repro.runtime.handoff`).
        ``shards=1`` restores unsharded execution.  Omitted keywords keep
        their current setting (initially ``serial`` / ``hash`` / ``auto``
        / no worker cap), like every other fluent setter — a later
        ``.sharded(4)`` re-scales without resetting the backend or
        partitioner.
        """
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if backend is not None and backend not in available_backends():
            raise ValueError(
                f"unknown execution backend {backend!r}; available: "
                f"{available_backends()}"
            )
        if partitioner is not None and partitioner not in PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {partitioner!r}; available: "
                f"{available_partitioners()}"
            )
        if handoff is not None and handoff not in HANDOFF_MODES:
            raise ValueError(
                f"unknown handoff mode {handoff!r}; expected one of "
                f"{HANDOFF_MODES}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be at least 1, got {max_workers}"
            )
        self._shards = shards
        if backend is not None:
            self._backend = backend
        if partitioner is not None:
            self._partitioner = partitioner
        if handoff is not None:
            self._handoff = handoff
        if max_workers is not None:
            self._max_workers = max_workers
        return self

    def on_failure(
        self,
        policy: Union[str, FailurePolicy] = "fail-fast",
        *,
        retries: Optional[int] = None,
        backoff_seconds: Optional[float] = None,
        backoff_multiplier: Optional[float] = None,
        shard_timeout: Optional[float] = None,
    ) -> "LinkageJob":
        """Choose how shard failures are handled (see
        :mod:`repro.runtime.failures`).

        ``policy`` is a registered policy name (one of
        :func:`~repro.runtime.failures.available_failure_policies`) or a
        ready :class:`~repro.runtime.failures.FailurePolicy` instance.
        ``retries`` is the number of *re-runs* after the first failure
        (``retries=2`` allows three attempts total); ``backoff_seconds``
        / ``backoff_multiplier`` shape the exponential delay between
        attempts; ``shard_timeout`` bounds each attempt's wall clock.
        ``fail-fast`` takes only ``shard_timeout`` — naming a retry knob
        with it is an error, not a silent no-op.
        """
        if isinstance(policy, FailurePolicy):
            if any(
                knob is not None
                for knob in (
                    retries,
                    backoff_seconds,
                    backoff_multiplier,
                    shard_timeout,
                )
            ):
                raise ValueError(
                    "pass either a FailurePolicy instance or policy "
                    "options, not both"
                )
            self._failure_policy = policy
            self._explicit.add("on_failure")
            return self
        if policy not in available_failure_policies():
            raise ValueError(
                f"unknown failure policy {policy!r}; registered: "
                f"{available_failure_policies()}"
            )
        options: dict = {}
        if retries is not None:
            if retries < 0:
                raise ValueError(f"retries must be >= 0, got {retries}")
            options["max_attempts"] = retries + 1
        if backoff_seconds is not None:
            options["backoff_seconds"] = backoff_seconds
        if backoff_multiplier is not None:
            options["backoff_multiplier"] = backoff_multiplier
        if shard_timeout is not None:
            options["shard_timeout_seconds"] = shard_timeout
        if policy == "fail-fast":
            rejected = [
                name
                for name, value in (
                    ("retries", retries),
                    ("backoff_seconds", backoff_seconds),
                    ("backoff_multiplier", backoff_multiplier),
                )
                if value is not None
            ]
            if rejected:
                raise ValueError(
                    f"{', '.join(rejected)} do not apply to the "
                    f"'fail-fast' policy; use on_failure('retry', ...) "
                    f"to re-run failed shards"
                )
        self._failure_policy = create_failure_policy(policy, **options)
        self._explicit.add("on_failure")
        return self

    def inject_faults(self, plan: FaultPlan) -> "LinkageJob":
        """Inject a deterministic :class:`~repro.runtime.faults.FaultPlan`
        into the run (testing/benchmark harness; no-op in production use).
        """
        if not isinstance(plan, FaultPlan):
            raise ValueError(
                f"inject_faults takes a FaultPlan, got {plan!r}"
            )
        self._faults = plan if plan else None
        if self._faults is not None:
            self._explicit.add("faults")
        return self

    def with_progress(self, enabled: bool = True) -> "LinkageJob":
        """Attach a :class:`~repro.runtime.collectors.ProgressCollector`
        to the run so ``JobHandle.progress()`` reports live counts.

        Off by default: the per-step feed costs one bus handler per
        engine step, which pure-throughput callers should not pay.
        Adaptive-only — the feed rides the session event bus, which the
        baseline operators never publish onto.
        """
        self._progress = bool(enabled)
        if enabled:
            self._explicit.add("progress")
        else:
            self._explicit.discard("progress")
        return self

    # -- compilation -----------------------------------------------------------------

    def compile(self) -> Optional[RunConfig]:
        """The frozen :class:`RunConfig` this job runs under.

        ``None`` for the baseline strategies (exact / approximate /
        blocking), which execute their dedicated operators rather than a
        runtime session.  An explicitly provided :meth:`config` wins
        outright, mirroring ``link_tables``.
        """
        if self._strategy != "adaptive":
            return None
        if self._config is not None:
            return self._config
        return RunConfig.from_thresholds(
            self._thresholds
            or Thresholds(theta_sim=self._similarity_threshold),
            parent_side=self._parent_side,
            policy=self._policy,
            budget_fraction=self._budget,
            deadline_seconds=self._deadline,
        )

    def build(self) -> "JobHandle":
        """Validate the combination and return a fresh, runnable handle."""
        from repro.jobs.handle import JobHandle

        if self._attribute is None:
            raise ValueError(
                "no join attribute set: call .on(<attribute name>) before "
                ".build()"
            )
        if self._strategy != "adaptive":
            if self._shards > 1:
                raise ValueError(
                    f"sharded execution is only available for the adaptive "
                    f"strategy, not {self._strategy!r}"
                )
            explicit = [k for k in _ADAPTIVE_ONLY if k in self._explicit]
            if explicit:
                raise ValueError(
                    f"{', '.join(explicit)} only appl"
                    f"{'y' if len(explicit) > 1 else 'ies'} to the adaptive "
                    f"strategy, not {self._strategy!r}"
                )
        return JobHandle(
            JobSpec(
                left=self._left,
                right=self._right,
                attribute=self._attribute,
                strategy=self._strategy,
                similarity_threshold=self._similarity_threshold,
                run_config=self.compile(),
                shards=self._shards,
                backend=self._backend,
                partitioner=self._partitioner,
                max_workers=self._max_workers,
                handoff=self._handoff,
                progress_enabled=self._progress,
                failure_policy=self._failure_policy,
                fault_plan=self._faults,
            )
        )
