"""Deterministic fault injection for the sharded execution layer.

The harness that makes failure semantics *testable*: a
:class:`FaultPlan` is pure, picklable data describing which shards
misbehave, how, and when —

* ``fail shard k on attempt j``        → :meth:`FaultPlan.crash`
* ``hang shard k``                     → :meth:`FaultPlan.hang`
* ``fail after n engine batches``      → ``after_batches=n``
* a seeded pseudo-random scenario      → :meth:`FaultPlan.seeded`

The shard runner in :mod:`repro.runtime.parallel` consults the plan at
every attempt boundary and engine-batch boundary and raises
:class:`InjectedFaultError` (for ``fail``) or spins on the attempt's
deadline token (for ``hang``) at exactly the described point.  Because
the plan is data, the same scenario replays identically on the serial
and process backends, in tests, in the bench harness and in the CI
smoke.

Nothing here is imported by the happy path unless a plan is supplied:
a run without faults never consults this module's logic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

_KINDS = ("fail", "hang")


class InjectedFaultError(RuntimeError):
    """The error a ``fail`` fault raises inside the targeted shard.

    A distinct type so tests and the CI smoke can assert that a surfaced
    failure is the *injected* one and not an accidental bug.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injected misbehaviour: shard, kind, attempt window, batch offset.

    Attributes
    ----------
    shard_id:
        The shard this fault targets.
    kind:
        ``"fail"`` raises :class:`InjectedFaultError`; ``"hang"`` blocks
        the shard (cooperatively — it polls its deadline/cancel token)
        until a per-shard timeout or caller cancellation releases it.
    attempt:
        1-based attempt the fault fires on, or ``None`` to fire on
        *every* attempt (an irrecoverable shard).
    after_batches:
        Engine batches the attempt completes before the fault triggers
        (``0`` = before the first batch).
    """

    shard_id: int
    kind: str
    attempt: Optional[int] = None
    after_batches: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {_KINDS}")
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if self.attempt is not None and self.attempt < 1:
            raise ValueError("attempt is 1-based; use None for every attempt")
        if self.after_batches < 0:
            raise ValueError("after_batches must be non-negative")

    def fires_on(self, attempt: int) -> bool:
        """Whether this fault is active on the given 1-based attempt."""
        return self.attempt is None or self.attempt == attempt


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable collection of :class:`FaultSpec` records.

    Plans compose with ``+`` and are consulted per ``(shard, attempt)``
    via :meth:`action_for`.  When several specs target the same shard and
    attempt, the first in declaration order wins (deterministic).
    """

    faults: Tuple[FaultSpec, ...] = ()

    # -- constructors ---------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (injecting nothing)."""
        return cls()

    @classmethod
    def crash(
        cls,
        shard_id: int,
        attempts: Optional[Iterable[int]] = (1,),
        after_batches: int = 0,
    ) -> "FaultPlan":
        """Fail ``shard_id`` on the given attempts (``None`` = every attempt)."""
        if attempts is None:
            return cls((FaultSpec(shard_id, "fail", None, after_batches),))
        return cls(
            tuple(
                FaultSpec(shard_id, "fail", attempt, after_batches)
                for attempt in sorted(set(attempts))
            )
        )

    @classmethod
    def hang(
        cls,
        shard_id: int,
        attempts: Optional[Iterable[int]] = (1,),
        after_batches: int = 0,
    ) -> "FaultPlan":
        """Hang ``shard_id`` on the given attempts (``None`` = every attempt)."""
        if attempts is None:
            return cls((FaultSpec(shard_id, "hang", None, after_batches),))
        return cls(
            tuple(
                FaultSpec(shard_id, "hang", attempt, after_batches)
                for attempt in sorted(set(attempts))
            )
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        shard_count: int,
        fail_probability: float = 0.5,
        max_failed_attempts: int = 2,
        hang_probability: float = 0.0,
        max_after_batches: int = 0,
    ) -> "FaultPlan":
        """A reproducible pseudo-random scenario over ``shard_count`` shards.

        For each shard, with ``fail_probability`` it crashes on its first
        1..``max_failed_attempts`` attempts (so a ``retry`` policy with
        ``max_attempts > max_failed_attempts`` always clears the plan);
        independently, with ``hang_probability`` it hangs on the first
        attempt instead.  ``max_after_batches`` spreads the trigger point
        across early engine batches.  Same seed → same plan, everywhere.
        """
        rng = random.Random(seed)
        specs = []
        for shard_id in range(shard_count):
            offset = rng.randint(0, max_after_batches) if max_after_batches else 0
            if rng.random() < hang_probability:
                specs.append(FaultSpec(shard_id, "hang", 1, offset))
                continue
            if rng.random() < fail_probability:
                failed = rng.randint(1, max_failed_attempts)
                specs.extend(
                    FaultSpec(shard_id, "fail", attempt, offset)
                    for attempt in range(1, failed + 1)
                )
        return cls(tuple(specs))

    # -- composition & queries ------------------------------------------

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.faults + other.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def action_for(self, shard_id: int, attempt: int) -> Optional[FaultSpec]:
        """The fault (if any) to trigger for this shard on this attempt."""
        for spec in self.faults:
            if spec.shard_id == shard_id and spec.fires_on(attempt):
                return spec
        return None

    def for_shard(self, shard_id: int) -> "FaultPlan":
        """The sub-plan targeting one shard (shipped to process workers)."""
        return FaultPlan(
            tuple(spec for spec in self.faults if spec.shard_id == shard_id)
        )

    def shards_affected(self) -> Tuple[int, ...]:
        """Sorted shard ids with at least one fault."""
        return tuple(sorted({spec.shard_id for spec in self.faults}))

    def max_attempt_failed(self, shard_id: int) -> Optional[int]:
        """Highest attempt a ``fail`` spec targets for this shard.

        ``None`` when an every-attempt spec makes the shard irrecoverable
        (or when no ``fail`` spec targets it and the result would be 0).
        """
        highest = 0
        for spec in self.faults:
            if spec.shard_id != shard_id or spec.kind != "fail":
                continue
            if spec.attempt is None:
                return None
            highest = max(highest, spec.attempt)
        return highest
