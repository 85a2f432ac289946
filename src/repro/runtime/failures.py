"""Failure policies for sharded execution: fail-fast, retry, degrade.

The same registry pattern as switch policies, partitioners and backends
(``@register_failure_policy`` / ``create_failure_policy``): a
:class:`FailurePolicy` tells the shard runner in
:mod:`repro.runtime.parallel` what to do when a shard attempt raises —

========== ============================================================
``fail-fast`` (default) first failure cancels the run and re-raises as
           :class:`~repro.runtime.errors.ShardExecutionError`
           (deterministic lowest-shard-id-wins, as before this layer
           existed).
``retry``  re-run the failed shard up to ``max_attempts`` total
           attempts, sleeping an exponential backoff between attempts
           (``backoff_seconds * backoff_multiplier**(attempt-1)``,
           deterministic and driven through an injectable clock/sleep);
           exhausted retries escalate to fail-fast behaviour.
``degrade`` retry like above (``max_attempts`` defaults to 1 — drop on
           first failure), then *drop* irrecoverably failed shards:
           the run completes and the :class:`ShardedJoinResult` carries
           a :class:`ShardFailure` record per dropped shard plus honest
           recall accounting — a degraded result never silently lies.
========== ============================================================

Orthogonally, any policy may set ``shard_timeout_seconds``: a per-shard,
per-attempt deadline enforced at engine-batch boundaries through the
existing cancel-token path, so a hung shard surfaces as a
:class:`~repro.runtime.errors.ShardTimeoutError` (then retried/dropped/
re-raised per the policy) instead of deadlocking the run.

This module is pure policy data + arithmetic; the one shard driver that
applies it is :func:`repro.runtime.parallel.execute_shards`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type, Union

_FAILURE_POLICIES: Dict[str, Type["FailurePolicy"]] = {}


@dataclass(frozen=True)
class ShardFailure:
    """The record a dropped shard leaves behind on a degraded result.

    Carried in ``ShardedJoinResult.failed_shards`` and surfaced through
    ``link_tables`` statistics and the CLI: which shard was lost, how
    hard the runtime tried, what killed it, and how many input records
    it was responsible for (the basis of the recall estimate).
    """

    shard_id: int
    attempts: int
    error_type: str
    message: str
    batches: int = 0
    timed_out: bool = False
    left_records: int = 0
    right_records: int = 0

    def describe(self) -> str:
        kind = "timed out" if self.timed_out else "failed"
        return (
            f"shard {self.shard_id} {kind} after {self.attempts} attempt(s) "
            f"[{self.error_type}]: {self.message}"
        )


class FailurePolicy:
    """Base class: what to do when a shard attempt fails.

    Subclasses are registered by name; instances are immutable value
    objects the executor reads (the retry/drop machinery itself lives in
    :mod:`repro.runtime.parallel`).
    """

    name = ""
    #: Whether irrecoverably failed shards are dropped (degrade) or fatal.
    drops_failed_shards = False

    def __init__(
        self,
        max_attempts: int = 1,
        backoff_seconds: float = 0.0,
        backoff_multiplier: float = 2.0,
        shard_timeout_seconds: Optional[float] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if backoff_multiplier <= 0:
            raise ValueError("backoff_multiplier must be positive")
        if shard_timeout_seconds is not None and shard_timeout_seconds <= 0:
            raise ValueError("shard_timeout_seconds must be positive (or None)")
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self.backoff_multiplier = backoff_multiplier
        self.shard_timeout_seconds = shard_timeout_seconds

    def should_retry(self, attempt: int) -> bool:
        """Whether a failure on 1-based ``attempt`` warrants another run."""
        return attempt < self.max_attempts

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait after a failure on 1-based ``attempt``.

        Deterministic exponential backoff:
        ``backoff_seconds * backoff_multiplier**(attempt - 1)``.
        """
        if self.backoff_seconds == 0:
            return 0.0
        return self.backoff_seconds * self.backoff_multiplier ** (attempt - 1)

    def describe(self) -> str:
        label = self.name or type(self).__name__
        details = []
        if self.max_attempts > 1:
            details.append(f"max_attempts={self.max_attempts}")
        if self.shard_timeout_seconds is not None:
            details.append(f"timeout={self.shard_timeout_seconds}s")
        return f"{label}({', '.join(details)})" if details else label


def register_failure_policy(
    name: str,
) -> Callable[[Type[FailurePolicy]], Type[FailurePolicy]]:
    """Class decorator registering a policy under ``name``."""

    def decorator(cls: Type[FailurePolicy]) -> Type[FailurePolicy]:
        cls.name = name
        _FAILURE_POLICIES[name] = cls
        return cls

    return decorator


def available_failure_policies() -> Tuple[str, ...]:
    """Registered policy names, sorted (CLI ``--on-failure`` choices)."""
    return tuple(sorted(_FAILURE_POLICIES))


def create_failure_policy(
    policy: Union[str, FailurePolicy, None], **options: object
) -> FailurePolicy:
    """Resolve a name / instance / ``None`` into a policy object.

    ``None`` means the default (``fail-fast``).  Keyword options are
    forwarded to the registered class's constructor; passing options with
    an already-constructed instance is an error.
    """
    if policy is None:
        policy = "fail-fast"
    if isinstance(policy, FailurePolicy):
        if options:
            raise ValueError(
                "options cannot be combined with an already-constructed policy"
            )
        return policy
    try:
        cls = _FAILURE_POLICIES[policy]
    except KeyError:
        known = ", ".join(available_failure_policies())
        raise ValueError(
            f"unknown failure policy {policy!r}; available: {known}"
        ) from None
    return cls(**options)  # type: ignore[arg-type]


@register_failure_policy("fail-fast")
class FailFastPolicy(FailurePolicy):
    """The pre-existing semantics: first shard failure aborts the run.

    A single attempt per shard; the lowest-failing-shard-id's error is
    re-raised (wrapped) after pending shards are cancelled.  May still
    carry a ``shard_timeout_seconds`` so hung shards abort the run as
    timeouts instead of blocking it forever.
    """

    def __init__(self, shard_timeout_seconds: Optional[float] = None) -> None:
        super().__init__(max_attempts=1, shard_timeout_seconds=shard_timeout_seconds)


@register_failure_policy("retry")
class RetryPolicy(FailurePolicy):
    """Re-run failed shards up to ``max_attempts`` total attempts.

    Because shard inputs are replayable (materialised buffers —
    see ``ShardPlan``), a clean re-run is bit-identical to a first run;
    a retried run that eventually succeeds is therefore bit-identical to
    a failure-free run.  Exhausted retries escalate to fail-fast.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        backoff_seconds: float = 0.0,
        backoff_multiplier: float = 2.0,
        shard_timeout_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(
            max_attempts=max_attempts,
            backoff_seconds=backoff_seconds,
            backoff_multiplier=backoff_multiplier,
            shard_timeout_seconds=shard_timeout_seconds,
        )


@register_failure_policy("degrade")
class DegradePolicy(FailurePolicy):
    """Drop irrecoverably failed shards and account for them honestly.

    Optionally retries first (``max_attempts > 1``); a shard that still
    fails is *dropped*: the run completes, and the result carries a
    :class:`ShardFailure` record per dropped shard, a coverage fraction
    and a recall estimate — surfaced through ``statistics``, job
    ``progress()`` and the CLI so a degraded result never silently lies.
    """

    drops_failed_shards = True

    def __init__(
        self,
        max_attempts: int = 1,
        backoff_seconds: float = 0.0,
        backoff_multiplier: float = 2.0,
        shard_timeout_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(
            max_attempts=max_attempts,
            backoff_seconds=backoff_seconds,
            backoff_multiplier=backoff_multiplier,
            shard_timeout_seconds=shard_timeout_seconds,
        )
