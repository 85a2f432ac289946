"""Parallel shard execution: the *execute* half of partition → execute → merge.

:class:`ParallelExecutor` drives every shard of a
:class:`~repro.runtime.sharding.ShardPlan` through its own
:class:`~repro.runtime.session.JoinSession` and merges the outcomes into a
:class:`~repro.runtime.sharding.ShardedJoinResult`.  Two backends exist:

``"serial"``
    Run shards one after the other in the calling thread.  The reference
    backend: bit-deterministic (same plan + config → byte-identical merged
    result, every time) and the oracle the process backend is tested
    against.

``"process"``
    A ``ProcessPoolExecutor``: real multi-core scaling.  Each worker
    rebuilds its shard's streams and session from a pickled
    :class:`_ShardTask`, built by the one factory :func:`_shard_task` for
    first attempts and retries alike.  Each side ships either as a
    shared-memory :class:`~repro.runtime.handoff.BlockDescriptor` (the
    zero-copy handoff) or as its shard's records; the latter needs the
    run configuration and every shard record to be picklable — enforced
    up front with a clear error rather than a deep traceback out of the
    pool.

Both backends reduce each shard session's result to match columns
(:class:`~repro.runtime.shard_result.ShardResult`) — the process
backend in the worker, so only columns, counters and the trace cross
back — and bind them to the plan's shard inputs
(:meth:`~repro.runtime.sharding.ShardOutcome.of`).  They produce the
same merged result for the same plan (the per-shard sessions are
deterministic; backends only change *where* they run), which
`tests/runtime/test_sharding_equivalence.py` pins.

Observers: pass an :class:`AggregatedEventBus` to keep existing collectors
working across shards.  The serial backend forwards every shard event
onto it live, tagged via :class:`ShardEvent`; the process backend cannot
stream events across the process boundary, so it publishes only the
per-shard :class:`ShardCompleted` lifecycle events (the merged result
still carries every trace and counter).

Cancellation: both backends accept a cancel token (anything with an
``is_set()`` method, typically a :class:`threading.Event`).  Serial stops
the running shard at its next engine-batch boundary (a partial shard
result, flagged ``cancelled``) and skips the rest; process cancels the
queued shard tasks and collects the in-flight ones.  The merged
:class:`ShardedJoinResult` then carries ``cancelled=True``.

Failure semantics: what happens when a shard session *raises* is decided
by a :class:`~repro.runtime.failures.FailurePolicy` (``fail-fast`` |
``retry`` | ``degrade``), applied uniformly across both backends by
:class:`FailureContext` — the shard runner that wraps errors into
:class:`~repro.runtime.errors.ShardExecutionError`, re-runs failed
shards with deterministic backoff (shard inputs are replayable by
contract), enforces per-shard timeouts at engine-batch boundaries via
the cancel-token path, publishes ``ShardFailed`` / ``ShardRetrying``
lifecycle events, and records dropped shards for honest degraded
accounting.  Deterministic fault injection
(:class:`~repro.runtime.faults.FaultPlan`) hooks into the same runner,
so every failure path is reproducible on both backends.  Every attempt
on both backends runs through the one attempt function
(:func:`_run_attempt`); a clean attempt (no fault, no timeout) runs
uncapped engine batches, so it is bit-identical to
:meth:`JoinSession.run` — the happy path pays nothing.
"""

from __future__ import annotations

import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

from repro.core.events import AssessmentEvent, TransitionEvent
from repro.engine.streams import InputLike, ListStream, RecordStream, RowSliceStream
from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinAttribute, MatchEvent
from repro.joins.engine import StepBatch, SwitchRecord
from repro.runtime.config import RunConfig
from repro.runtime.errors import ShardExecutionError, ShardTimeoutError
from repro.runtime.events import (
    EventBus,
    ShardCompleted,
    ShardEvent,
    ShardFailed,
    ShardRetrying,
)
from repro.runtime.failures import (
    FailurePolicy,
    ShardFailure,
    create_failure_policy,
)
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFaultError
from repro.runtime.handoff import AttachedBlock, BlockDescriptor, CancelFlag
from repro.runtime.session import AdaptiveJoinResult, JoinSession
from repro.runtime.shard_result import ShardResult
from repro.runtime.sharding import (
    Partitioner,
    PublishedPlanBlocks,
    ShardedJoinResult,
    ShardOutcome,
    ShardPlan,
)

__all__ = [
    "AggregatedEventBus",
    "FailureContext",
    "ParallelExecutor",
    "available_backends",
    "estimate_shard_payload_bytes",
    "run_sharded",
]

#: Engine steps per batch when an attempt is supervised (per-shard
#: timeout or injected fault): the deadline/fault checks run at these
#: boundaries, so "fail after n batches" counts batches of this size.
_SUPERVISED_BATCH = 256

#: How long a cooperatively hung shard sleeps between polls of its
#: deadline/cancel token.  Bounds how far past its timeout a hung shard
#: can run.
_HANG_POLL_SECONDS = 0.02


#: Event types forwarded live from shard buses by the serial backend.
FORWARDED_EVENT_TYPES: Tuple[Type, ...] = (
    StepBatch,
    MatchEvent,
    SwitchRecord,
    TransitionEvent,
    AssessmentEvent,
)

#: Forwarded types whose shard-bus subscription is demand-gated: attaching
#: a forwarder *enables* publication on the shard bus (match events), so
#: the forwarder is only attached when the aggregated bus actually has a
#: consumer — a direct subscriber of the type, or a ``ShardEvent``
#: subscriber (which receives every forwarded event, tagged).
_DEMAND_GATED_TYPES: Tuple[Type, ...] = (MatchEvent,)


class AggregatedEventBus(EventBus):
    """A thread-safe :class:`EventBus` that aggregates several shard buses.

    Subscribe collectors exactly as on a plain bus; then hand the bus to
    :meth:`ParallelExecutor.run`, which attaches one forwarder per shard.
    ``publish`` and the forwarders take one lock, so events published
    from different threads never interleave inside a handler; per-shard
    buses stay lock-free (each is touched by one session only).
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        super().__init__()
        # Reentrant: a handler may publish a derived event from inside
        # its own dispatch without deadlocking.
        self._lock = threading.RLock()

    def publish(self, event: object) -> None:
        with self._lock:
            EventBus.publish(self, event)

    def forward_from(self, shard_id: int, shard_bus: EventBus) -> None:
        """Subscribe forwarders on ``shard_bus`` for every forwarded type.

        Each shard event is re-published here twice: raw (existing
        shard-agnostic subscribers keep working) and wrapped in a
        :class:`ShardEvent` (only when someone subscribed to those).
        Match events are demand-gated (:data:`_DEMAND_GATED_TYPES`):
        subscribing to ``MatchEvent`` on a shard bus is what *enables* its
        publication, so that forwarder is only attached when the
        aggregated bus has a consumer for it.
        """
        tag_channel = self.channel(ShardEvent)

        def forward(event: object) -> None:
            with self._lock:
                handlers = self._handlers.get(type(event))
                if handlers:
                    for handler in handlers:
                        handler(event)
                if tag_channel:
                    tagged = ShardEvent(shard_id, event)
                    for handler in tag_channel:
                        handler(tagged)

        for event_type in FORWARDED_EVENT_TYPES:
            if event_type in _DEMAND_GATED_TYPES and not (
                self.has_subscribers(event_type) or self.has_subscribers(ShardEvent)
            ):
                continue
            shard_bus.subscribe(event_type, forward)


# -- shard execution --------------------------------------------------------------------


def _cancelled(cancel: Optional[object]) -> bool:
    """Whether a (possibly absent) cancel token has been set."""
    return cancel is not None and cancel.is_set()


def _never_ran(outcome: ShardOutcome) -> bool:
    """A shard that observed the cancel token before its first engine step.

    Such shards were *skipped*, not partially run: backends drop them so
    "cancel between shards" returns only shards that did real work (plus,
    on the serial backend, a genuinely partial one).
    The rule itself is :attr:`AdaptiveJoinResult.never_ran`.
    """
    return outcome.result.never_ran


class _AttemptDeadline:
    """A cancel token that also trips when an attempt's deadline passes.

    Combines the caller's token (cooperative cancellation, unchanged)
    with a per-attempt timeout read off an injectable clock.  Handed to
    ``JoinSession.run_batches`` exactly like a plain token, so timeout
    enforcement rides the existing batch-boundary cancellation path —
    a hung or slow shard stops at its next boundary, and ``timed_out``
    tells the runner whether the trip was a timeout (raise
    :class:`ShardTimeoutError`) or the caller cancelling (return the
    partial outcome, as always).
    """

    __slots__ = ("_cancel", "_clock", "_deadline", "timed_out")

    def __init__(
        self,
        cancel: Optional[object],
        clock: Callable[[], float],
        timeout_seconds: float,
    ) -> None:
        self._cancel = cancel
        self._clock = clock
        self._deadline = clock() + timeout_seconds
        self.timed_out = False

    def is_set(self) -> bool:
        if self._cancel is not None and self._cancel.is_set():
            return True
        if self._clock() >= self._deadline:
            self.timed_out = True
            return True
        return False


def _run_attempt(
    left,
    right,
    attribute: JoinAttribute,
    config: RunConfig,
    shard_id: int,
    attempt: int,
    shard_bus: Optional[EventBus],
    cancel: Optional[object],
    timeout_seconds: Optional[float],
    fault: Optional[FaultSpec],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    max_batch: Optional[int] = None,
    batch_delay: float = 0.0,
) -> AdaptiveJoinResult:
    """Drive one shard attempt; the single implementation behind both
    backends (the serial runner and the process-pool worker).

    A clean attempt (no fault, no timeout) runs ``max_batch``-step engine
    batches (uncapped by default, exactly as :meth:`JoinSession.run`
    does), sleeping ``batch_delay`` seconds after each.  A supervised one
    runs in :data:`_SUPERVISED_BATCH`-step batches, checking the deadline
    and any injected fault at every boundary; a cooperative hang polls its
    token through ``sleep``.  Returns the
    attempt's :class:`AdaptiveJoinResult` (possibly a cancelled partial,
    when the *caller's* token tripped) or raises:

    * :class:`ShardTimeoutError` when the attempt's deadline trips,
    * :class:`ShardExecutionError` wrapping anything the session (or an
      injected fault) raises, with shard id / attempt / elapsed batches
      attached and ``__cause__`` set to the original error.
    """
    token: Optional[object] = cancel
    if timeout_seconds is not None:
        token = _AttemptDeadline(cancel, clock, timeout_seconds)
    if fault is not None or timeout_seconds is not None:
        max_batch = _SUPERVISED_BATCH
    batches = 0
    try:
        session = JoinSession(left, right, attribute, config, bus=shard_bus)
        hang_now = fault is not None and fault.kind == "hang" and fault.after_batches == 0
        if fault is not None and fault.kind == "fail" and fault.after_batches == 0:
            raise InjectedFaultError(
                f"injected shard failure: shard {shard_id} attempt {attempt}"
            )
        if not hang_now:
            for _ in session.run_batches(max_batch=max_batch, cancel=token):
                batches += 1
                if batch_delay:
                    sleep(batch_delay)
                if fault is not None and batches >= fault.after_batches:
                    if fault.kind == "fail":
                        raise InjectedFaultError(
                            f"injected shard failure: shard {shard_id} "
                            f"attempt {attempt} after {batches} batch(es)"
                        )
                    hang_now = True
                    break
        if hang_now:
            # A cooperative hang: the shard makes no progress but polls
            # its token, so a per-shard timeout (or the caller's cancel)
            # releases it.  With neither, it hangs for real — which is
            # exactly the failure mode being simulated.
            while token is None or not token.is_set():
                sleep(_HANG_POLL_SECONDS)
            if isinstance(token, _AttemptDeadline) and token.timed_out:
                raise ShardTimeoutError(
                    shard_id,
                    attempt,
                    batches,
                    timeout_seconds,
                    message=(
                        f"injected hang; exceeded the per-shard timeout of "
                        f"{timeout_seconds}s"
                    ),
                )
            session.mark_cancelled()
            return session.result()
        result = session.result()
        if (
            result.cancelled
            and isinstance(token, _AttemptDeadline)
            and token.timed_out
        ):
            raise ShardTimeoutError(shard_id, attempt, batches, timeout_seconds)
        return result
    except ShardExecutionError:
        raise
    except Exception as error:
        wrapped = ShardExecutionError(
            shard_id, attempt, batches, f"{type(error).__name__}: {error}"
        )
        raise wrapped from error


class FailureContext:
    """Applies one run's failure policy + fault plan to every shard.

    Constructed per :meth:`ParallelExecutor.run` and handed to the
    backend.  The serial backend runs each shard through
    :meth:`run_shard`, the attempt loop itself; the process backend's
    coordinator resubmits attempts to its pool and uses the same policy
    bookkeeping (:meth:`handle_failure`, :meth:`note_retry`,
    :meth:`record_failure`), so both backends share one implementation
    of the failure semantics.

    ``clock`` and ``sleep`` are injectable, so retry backoff and timeout
    behaviour are deterministic under test.  Thread-safe: the failure
    record map is the only shared mutable state and is lock-protected.
    """

    def __init__(
        self,
        plan: ShardPlan,
        config: RunConfig,
        bus: Optional["AggregatedEventBus"],
        policy: FailurePolicy,
        faults: Optional[FaultPlan] = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self.config = config
        self.bus = bus
        self.policy = policy
        self.faults = faults if faults else None
        self.clock = clock
        self.sleep = sleep
        self._failures: Dict[int, ShardFailure] = {}
        self._lock = threading.Lock()

    def run_shard(
        self, shard_id: int, cancel: Optional[object] = None
    ) -> Optional[ShardOutcome]:
        """Run one shard to a final outcome under the policy.

        Returns the shard's :class:`ShardOutcome`, or ``None`` when the
        shard was skipped after cancellation or dropped by a degrade
        policy.  Retry backoff goes through the injected ``sleep``.
        Raises :class:`ShardExecutionError` only when the policy says
        the failure is fatal.
        """
        attempt = 1
        timeout = self.policy.shard_timeout_seconds
        while True:
            fault = (
                self.faults.action_for(shard_id, attempt) if self.faults else None
            )
            started = self.clock()
            try:
                left, right = self.plan.shard_streams(shard_id)
                shard_bus: Optional[EventBus] = None
                if self.bus is not None:
                    shard_bus = EventBus()
                    self.bus.forward_from(shard_id, shard_bus)
                result = _run_attempt(
                    left,
                    right,
                    self.plan.attribute,
                    self.config,
                    shard_id,
                    attempt,
                    shard_bus,
                    cancel,
                    timeout,
                    fault,
                    self.clock,
                    self.sleep,
                )
                outcome = ShardOutcome.of(
                    self.plan,
                    shard_id,
                    ShardResult.from_session(result),
                    self.clock() - started,
                )
                return None if _never_ran(outcome) else outcome
            except Exception as error:  # noqa: BLE001 - policy decides below
                if isinstance(error, ShardExecutionError):
                    wrapped = error
                else:
                    wrapped = ShardExecutionError(
                        shard_id, attempt, 0, f"{type(error).__name__}: {error}"
                    )
                    wrapped.__cause__ = error
                action = self.handle_failure(shard_id, attempt, wrapped, cancel)
                if action == "retry":
                    delay = self.note_retry(shard_id, attempt)
                    if delay > 0:
                        self.sleep(delay)
                    attempt += 1
                    continue
                if action == "drop":
                    self.record_failure(shard_id, attempt, wrapped)
                    return None
                raise wrapped from wrapped.__cause__

    # -- policy bookkeeping (shared with the process coordinator) --------

    def handle_failure(
        self,
        shard_id: int,
        attempt: int,
        error: ShardExecutionError,
        cancel: Optional[object],
    ) -> str:
        """Publish ``ShardFailed`` and decide ``retry`` / ``drop`` / ``raise``."""
        will_retry = self.policy.should_retry(attempt) and not _cancelled(cancel)
        if self.bus is not None:
            self.bus.publish(ShardFailed(shard_id, attempt, error, will_retry))
        if will_retry:
            return "retry"
        if self.policy.drops_failed_shards:
            return "drop"
        return "raise"

    def note_retry(self, shard_id: int, attempt: int) -> float:
        """Publish ``ShardRetrying`` and return the backoff delay."""
        delay = self.policy.backoff_delay(attempt)
        if self.bus is not None:
            self.bus.publish(ShardRetrying(shard_id, attempt + 1, delay))
        return delay

    def record_failure(
        self, shard_id: int, attempts: int, error: ShardExecutionError
    ) -> None:
        """Record a dropped shard for the merged result's honest accounting."""
        cause = error.__cause__
        cause_name = type(cause).__name__ if cause is not None else ""
        if not cause_name or cause_name == "_RemoteTraceback":
            # No cause, or the process boundary replaced it with the
            # pool's traceback shim.  The wrapped message leads with the
            # original type's name ("ValueError: ...") — recover it, and
            # fall back to the wrapper's own type otherwise.
            head = (error.message or "").split(":", 1)[0].strip()
            cause_name = head if head.isidentifier() else type(error).__name__
        record = ShardFailure(
            shard_id=shard_id,
            attempts=attempts,
            error_type=cause_name,
            # The cause text alone — shard id / attempt / batches already
            # have their own fields, so the row stays non-redundant.
            message=error.message or str(error),
            batches=error.batches,
            timed_out=isinstance(error, ShardTimeoutError),
            # len(shard input), not len(.records): under the zero-copy
            # handoff the record list is decoded lazily, and accounting a
            # failure must not force a full shard decode.
            left_records=len(self.plan.left_shards[shard_id]),
            right_records=len(self.plan.right_shards[shard_id]),
        )
        with self._lock:
            self._failures[shard_id] = record

    def failure_records(self) -> Tuple[ShardFailure, ...]:
        """Dropped-shard records, in shard-id order."""
        with self._lock:
            return tuple(
                self._failures[shard_id] for shard_id in sorted(self._failures)
            )


@dataclass
class ShardInputPayload:
    """One side's shard records, shipped to a worker process (pickle handoff)."""

    schema: Schema
    records: List[Record]


@dataclass
class _ShardTask:
    """The picklable payload a process-backend worker runs one shard attempt from.

    Each side is either a :class:`~repro.runtime.handoff.BlockDescriptor`
    (the zero-copy handoff: the side's records and every shard's row-index
    array live in shared-memory segments published once per run by the
    coordinator, :meth:`~repro.runtime.sharding.ShardPlan.publish_blocks`,
    so the task pickles to O(descriptor) bytes regardless of shard size or
    replication factor) or a :class:`ShardInputPayload` carrying the
    shard's records themselves (the pickle handoff).

    ``attempt`` / ``timeout_seconds`` / ``faults`` carry the
    failure-semantics contract: retries are coordinated in the parent (a
    retried shard is simply resubmitted through :func:`_shard_task` with
    ``attempt + 1`` — under the zero-copy handoff that retry is
    descriptor-only too), while the per-attempt timeout and any injected
    faults are enforced *inside* the worker — the only place that can see
    the attempt's engine-batch boundaries.

    ``cancel_flag`` / ``max_batch`` / ``batch_delay`` serve drivers that
    cancel in-flight shards (the server's scheduler): the worker opens the
    named :class:`~repro.runtime.handoff.CancelFlag` and runs
    ``max_batch``-step engine batches, checking it (and sleeping
    ``batch_delay`` seconds, a testing hook) at every boundary.
    """

    shard_id: int
    attribute: JoinAttribute
    config: RunConfig
    left: Union[BlockDescriptor, ShardInputPayload]
    right: Union[BlockDescriptor, ShardInputPayload]
    left_name: str
    right_name: str
    attempt: int = 1
    timeout_seconds: Optional[float] = None
    faults: Optional[FaultPlan] = None
    cancel_flag: Optional[str] = None
    max_batch: Optional[int] = None
    batch_delay: float = 0.0


def _shard_task(
    plan: ShardPlan,
    config: RunConfig,
    shard_id: int,
    attempt: int,
    descriptors: Optional[Tuple[BlockDescriptor, BlockDescriptor]],
    timeout_seconds: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    cancel_flag: Optional[str] = None,
    max_batch: Optional[int] = None,
    batch_delay: float = 0.0,
) -> _ShardTask:
    """The one task factory: first attempts, retries and size estimates.

    With ``descriptors`` (the plan's published side blocks) both sides
    ship as descriptors; without, as their shard's record payloads.
    """
    left_input = plan.left_shards[shard_id]
    right_input = plan.right_shards[shard_id]
    left: Union[BlockDescriptor, ShardInputPayload]
    right: Union[BlockDescriptor, ShardInputPayload]
    if descriptors is not None:
        left, right = descriptors
    else:
        left = ShardInputPayload(left_input.schema, left_input.records)
        right = ShardInputPayload(right_input.schema, right_input.records)
    return _ShardTask(
        shard_id=shard_id,
        attribute=plan.attribute,
        config=config,
        left=left,
        right=right,
        left_name=left_input.name,
        right_name=right_input.name,
        attempt=attempt,
        timeout_seconds=timeout_seconds,
        faults=faults.for_shard(shard_id) if faults else None,
        cancel_flag=cancel_flag,
        max_batch=max_batch,
        batch_delay=batch_delay,
    )


def _run_shard_task(task: _ShardTask) -> Tuple[int, ShardResult, float]:
    """Process-pool worker: run one shard *attempt* from its pickled task.

    Timeouts and injected faults are enforced here, in-worker, through
    the same :func:`_run_attempt` runner the serial backend uses — real
    wall clock and ``time.sleep``, since injectables cannot cross the
    process boundary.  Failures come back as picklable
    :class:`ShardExecutionError`\\ s; the coordinator applies the policy
    (retry = resubmit, degrade = record, fail-fast = raise).  Shared-memory
    attachments are closed before returning on every path.  The result
    goes back as match columns (:class:`ShardResult`): no match event,
    stored tuple or record crosses back to the parent, which already holds
    the shard's records in its plan.
    """
    started = time.perf_counter()
    attachments: List[AttachedBlock] = []
    cancel: Optional[CancelFlag] = None
    try:
        if task.cancel_flag is not None:
            cancel = CancelFlag.open(task.cancel_flag)
        streams: List[RecordStream] = []
        for payload, name in (
            (task.left, task.left_name),
            (task.right, task.right_name),
        ):
            if isinstance(payload, BlockDescriptor):
                # Zero-copy: stream the shard's rows as views over the
                # mapped buffers; cell values are materialised lazily as
                # the join consumes them.
                attached = payload.attach()
                attachments.append(attached)
                rows = attached.shard_rows(task.shard_id)
                streams.append(RowSliceStream(attached.block, rows, name=name))
            else:
                streams.append(ListStream(payload.schema, payload.records, name=name))
        left, right = streams
        fault = (
            task.faults.action_for(task.shard_id, task.attempt)
            if task.faults
            else None
        )
        result = _run_attempt(
            left,
            right,
            task.attribute,
            task.config,
            task.shard_id,
            task.attempt,
            None,
            cancel,
            task.timeout_seconds,
            fault,
            time.perf_counter,
            time.sleep,
            max_batch=task.max_batch,
            batch_delay=task.batch_delay,
        )
    finally:
        for attached in reversed(attachments):
            attached.close()
        if cancel is not None:
            cancel.close()
    return (
        task.shard_id,
        ShardResult.from_session(result),
        time.perf_counter() - started,
    )


def _ensure_picklable(obj: object, what: str) -> None:
    """Raise a clear error when ``obj`` cannot cross a process boundary."""
    try:
        pickle.dumps(obj)
    except Exception as error:
        raise ValueError(
            f"the process backend ships each shard to a worker process, but "
            f"{what} is not picklable: {error}"
        ) from error


# -- the backends -----------------------------------------------------------------------


def _serial_backend(
    plan: ShardPlan,
    config: RunConfig,
    bus: Optional[AggregatedEventBus],
    max_workers: Optional[int],
    cancel: Optional[object],
    ctx: FailureContext,
) -> List[ShardOutcome]:
    """Shards run one after the other, in shard-id order (the oracle).

    A set cancel token stops the running shard at its next engine-batch
    boundary (partial outcome kept) and skips every shard that has not
    started; completed shards are returned as-is.
    """
    outcomes = []
    for shard_id in range(plan.shard_count):
        if _cancelled(cancel):
            break
        outcome = ctx.run_shard(shard_id, cancel)
        if outcome is None:
            if _cancelled(cancel):
                # The token was set between the loop check and the
                # session's first step (another thread cancelled):
                # skipped, not run.
                break
            continue  # dropped by the degrade policy; recorded on ctx
        if bus is not None:
            bus.publish(
                ShardCompleted(shard_id, outcome.result, outcome.wall_seconds)
            )
        outcomes.append(outcome)
    return outcomes


def _process_backend(
    plan: ShardPlan,
    config: RunConfig,
    bus: Optional[AggregatedEventBus],
    max_workers: Optional[int],
    cancel: Optional[object],
    ctx: FailureContext,
) -> List[ShardOutcome]:
    """One worker process per shard (capped at ``max_workers``).

    Under the zero-copy handoff (``plan.handoff == "shared-memory"``)
    both side blocks are published to shared memory once per run and
    every task — first attempts and retries alike — ships only the two
    descriptors, O(descriptor) bytes; the segments are closed and
    unlinked in a ``finally`` on every exit path.  Under the
    pickle handoff each task carries its shard's full record payload and
    requires a picklable :class:`RunConfig` and picklable shard records
    (checked up front).  Shard events are not streamed back — only
    :class:`ShardCompleted` is published per shard, after the fact.  A
    shard failure cancels every still-queued shard task and re-raises
    the lowest-shard-id fatal error (in-flight workers on lower shard
    ids are awaited for the pin).

    Failure policies are applied by the coordinator: a worker runs *one*
    attempt (enforcing the per-attempt timeout and any injected faults
    in-process) and a retried shard is resubmitted to the pool with an
    incremented attempt number — replayable shard inputs make the
    resubmission bit-identical to a first run.

    Cancellation is coarse here: the token cannot cross the process
    boundary, so it is checked between shard completions — queued shard
    tasks are cancelled, in-flight workers run their shard to the end.
    """
    _ensure_picklable(config, "the run configuration (RunConfig)")

    # Zero-copy handoff: publish both side blocks into shared memory once
    # for this run and ship only descriptors.  A platform that refuses the
    # allocation degrades to the classic pickle shipping — the plan's
    # shard inputs can always materialise their records.
    published: Optional[PublishedPlanBlocks] = None
    if plan.handoff == "shared-memory":
        try:
            published = plan.publish_blocks()
        except OSError:
            published = None

    descriptors = published.descriptors if published is not None else None

    def make_task(shard_id: int, attempt: int) -> _ShardTask:
        return _shard_task(
            plan,
            config,
            shard_id,
            attempt,
            descriptors,
            ctx.policy.shard_timeout_seconds,
            ctx.faults,
        )

    try:
        tasks = []
        for shard_id in range(plan.shard_count):
            task = make_task(shard_id, 1)
            if published is None:
                _ensure_picklable(task, f"shard {shard_id}'s input records")
            tasks.append(task)
        workers = min(max_workers or plan.shard_count, plan.shard_count)
        pool = ProcessPoolExecutor(max_workers=workers)
    except BaseException:
        if published is not None:
            published.release()
        raise
    failed = True
    completed: Dict[int, ShardOutcome] = {}
    next_publish = 0
    try:
        future_tasks = {
            pool.submit(_run_shard_task, task): task for task in tasks
        }
        pending = set(future_tasks)
        while pending:
            if _cancelled(cancel):
                # Queued tasks are dropped; in-flight workers finish their
                # shard (the token cannot reach them) and are collected.
                pending = {
                    future for future in pending if not future.cancel()
                }
                if not pending:
                    break
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            # Apply the failure policy, lowest shard id first so the
            # raised (or recorded) error is deterministic in a race.
            failures = sorted(
                (
                    (future_tasks[future].shard_id, future)
                    for future in done
                    if future.exception() is not None
                ),
                key=lambda item: item[0],
            )
            for shard_id, future in failures:
                task = future_tasks[future]
                error = future.exception()
                if isinstance(error, ShardExecutionError):
                    wrapped = error
                else:
                    # e.g. BrokenProcessPool, or an unpicklable worker
                    # error surfaced by the pool machinery.
                    wrapped = ShardExecutionError(
                        shard_id,
                        task.attempt,
                        0,
                        f"{type(error).__name__}: {error}",
                    )
                    wrapped.__cause__ = error
                action = ctx.handle_failure(shard_id, task.attempt, wrapped, cancel)
                if action == "retry":
                    delay = ctx.note_retry(shard_id, task.attempt)
                    if delay > 0:
                        ctx.sleep(delay)
                    # Retry resubmission goes through the same task
                    # factory: under the zero-copy handoff that is a
                    # fresh descriptor-only task — the records stay in
                    # the already-published segments.
                    retry_task = make_task(shard_id, task.attempt + 1)
                    retry_future = pool.submit(_run_shard_task, retry_task)
                    future_tasks[retry_future] = retry_task
                    pending.add(retry_future)
                elif action == "drop":
                    ctx.record_failure(shard_id, task.attempt, wrapped)
                else:
                    # Fail-fast: the pin is "lowest failed shard id
                    # wins", deterministically.  Queued tasks are
                    # cancelled, but an in-flight worker on a *lower*
                    # shard id may be about to fail fatally too and take
                    # the pin — await those (and only those) before
                    # raising.  A lower-id failure that the policy would
                    # still retry is not fatal and cannot take the pin.
                    still_running = [
                        future for future in pending if not future.cancel()
                    ]
                    lower = {
                        future
                        for future in still_running
                        if future_tasks[future].shard_id < wrapped.shard_id
                    }
                    while lower:
                        finished, _ = wait(lower, return_when=FIRST_COMPLETED)
                        for future in finished:
                            error = future.exception()
                            low_task = future_tasks[future]
                            if (
                                error is None
                                or low_task.shard_id >= wrapped.shard_id
                                or ctx.policy.should_retry(low_task.attempt)
                            ):
                                continue
                            if isinstance(error, ShardExecutionError):
                                wrapped = error
                            else:
                                wrapped = ShardExecutionError(
                                    low_task.shard_id,
                                    low_task.attempt,
                                    0,
                                    f"{type(error).__name__}: {error}",
                                )
                                wrapped.__cause__ = error
                        lower = {
                            future
                            for future in lower - finished
                            if future_tasks[future].shard_id < wrapped.shard_id
                        }
                    raise wrapped
            for future in done:
                if future.exception() is not None:
                    continue
                shard_id, result, wall_seconds = future.result()
                completed[shard_id] = ShardOutcome.of(
                    plan, shard_id, result, wall_seconds
                )
            # Stream completions progressively, in shard-id order: shard
            # k's event goes out as soon as shards 0..k have finished,
            # without waiting for the whole run (a live progress feed).
            # Degraded runs flush any events stuck behind a dropped
            # shard's gap after the loop, like cancellation does.
            if bus is not None:
                while next_publish in completed:
                    outcome = completed[next_publish]
                    bus.publish(
                        ShardCompleted(
                            next_publish, outcome.result, outcome.wall_seconds
                        )
                    )
                    next_publish += 1
        failed = False
        # Cancellation (a cancelled queued shard) or a degrade policy (a
        # dropped shard) can leave a gap in the shard-id sequence; flush
        # the completions stuck behind it.
        if bus is not None:
            for shard_id in sorted(completed):
                if shard_id >= next_publish:
                    outcome = completed[shard_id]
                    bus.publish(
                        ShardCompleted(shard_id, outcome.result, outcome.wall_seconds)
                    )
    finally:
        pool.shutdown(wait=not failed, cancel_futures=True)
        # Segments live exactly one run: close + unlink on success,
        # failure and cancellation alike.  Workers attach read-only and
        # close before returning, so nothing dangles.
        if published is not None:
            published.release()
    return [completed[shard_id] for shard_id in sorted(completed)]


#: The execution backends by name.  A backend is a callable ``(plan,
#: config, bus, max_workers, cancel, ctx) → List[ShardOutcome]``; it owns
#: worker scheduling and nothing else — partitioning happened before it
#: runs, merging happens after.  ``cancel`` is an optional ``is_set()``
#: token: once set, the backend stops scheduling new shards and returns
#: the outcomes of the shards already completed.  ``ctx`` is the run's
#: :class:`FailureContext`, which applies the failure policy, timeouts and
#: fault injection uniformly.
_BACKENDS: Dict[str, Callable] = {
    "serial": _serial_backend,
    "process": _process_backend,
}


def available_backends() -> Tuple[str, ...]:
    """Names of the execution backends, sorted."""
    return tuple(sorted(_BACKENDS))


# -- the executor -----------------------------------------------------------------------


class ParallelExecutor:
    """Runs every shard of a plan through its own session and merges.

    Parameters
    ----------
    backend:
        ``"serial"`` (the default) or ``"process"`` (see
        :func:`available_backends`).
    max_workers:
        Optional cap on concurrent workers (defaults to the shard count;
        ignored by the serial backend).
    failure_policy:
        What to do when a shard fails: a registered policy name
        (``"fail-fast"`` — the default — ``"retry"``, ``"degrade"``) or
        a constructed :class:`~repro.runtime.failures.FailurePolicy`
        carrying retry/backoff/timeout settings.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` injecting
        deterministic failures (tests, bench, the CI smoke).
    clock / sleep:
        Injectable time sources for the retry backoff and per-shard
        timeouts (defaults: ``time.perf_counter`` / ``time.sleep``);
        process-backend *workers* always use the real clock, since an
        injected one cannot cross the process boundary.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        failure_policy: Union[str, FailurePolicy, None] = None,
        faults: Optional[FaultPlan] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown execution backend {backend!r}; available: "
                f"{available_backends()}"
            )
        self.backend = backend
        self.max_workers = max_workers
        self.failure_policy = create_failure_policy(failure_policy)
        self.faults = faults if faults else None
        self._clock = clock or time.perf_counter
        self._sleep = sleep or time.sleep

    def run(
        self,
        plan: ShardPlan,
        config: Optional[RunConfig] = None,
        bus: Optional[AggregatedEventBus] = None,
        cancel: Optional[object] = None,
    ) -> ShardedJoinResult:
        """Execute every shard of ``plan`` under ``config`` and merge.

        Each shard gets a fresh :class:`JoinSession` built from the same
        (immutable) config: policies are instantiated per shard from
        ``config.policy``, every shard adapts independently, and relative
        budgets (``budget_fraction``) resolve against the shard's own
        input sizes.  An explicit ``config.parent_size`` is taken as-is by
        every shard; leave it unset to let each shard infer its own
        partition's parent size (the per-shard analog of ``|R|``).

        ``cancel`` (an ``is_set()``-style token, e.g. ``threading.Event``)
        requests a mid-run stop; the merged result then contains the
        shards completed before the token was observed and carries
        ``cancelled=True``.
        """
        config = config or RunConfig()
        # A plan built without the config in hand (or with a hand-built
        # partitioner) must still agree with the run it executes under —
        # the gram-prefix partitioner's recall guarantee depends on matching
        # tokenisation, so a mismatch is an error, not a silent loss.
        plan.partitioner.check_config(config)
        ctx = FailureContext(
            plan,
            config,
            bus,
            self.failure_policy,
            faults=self.faults,
            clock=self._clock,
            sleep=self._sleep,
        )
        outcomes = _BACKENDS[self.backend](
            plan, config, bus, self.max_workers, cancel, ctx
        )
        return ShardedJoinResult(
            shards=tuple(outcomes),
            backend=self.backend,
            partitioner=plan.partitioner.name or type(plan.partitioner).__name__,
            left_input_size=plan.left_input_size,
            right_input_size=plan.right_input_size,
            cancelled=_cancelled(cancel)
            or any(outcome.result.cancelled for outcome in outcomes),
            failed_shards=ctx.failure_records(),
            handoff=plan.handoff,
        )


def estimate_shard_payload_bytes(
    plan: ShardPlan, config: Optional[RunConfig] = None, attempt: int = 1
) -> List[int]:
    """Pickled bytes the process backend ships per shard task.

    Builds, per shard, exactly the task the backend's task factory
    (:func:`_shard_task`) would submit for ``attempt`` under the plan's
    resolved handoff — descriptors with placeholder segment names for
    shared-memory plans (no segment is allocated; the name does not
    change the size class), full record payloads for pickle plans — and
    measures ``len(pickle.dumps(task))``.  The bench harness
    records these as ``payload_bytes_per_shard``, and the regression test
    for descriptor-only retries is built on the same measurement.
    """
    config = config or RunConfig()
    descriptors = plan.block_descriptors()
    return [
        len(pickle.dumps(_shard_task(plan, config, shard_id, attempt, descriptors)))
        for shard_id in range(plan.shard_count)
    ]


def run_sharded(
    left: InputLike,
    right: InputLike,
    attribute: Union[str, JoinAttribute],
    config: Optional[RunConfig] = None,
    shards: int = 1,
    partitioner: Union[str, Partitioner] = "hash",
    backend: str = "serial",
    max_workers: Optional[int] = None,
    bus: Optional[AggregatedEventBus] = None,
    cancel: Optional[object] = None,
    failure_policy: Union[str, FailurePolicy, None] = None,
    faults: Optional[FaultPlan] = None,
    handoff: str = "auto",
) -> ShardedJoinResult:
    """One-call sharded join: partition, execute on a backend, merge.

    The convenience entry point ``link_tables``, the bench harness and the
    CLI build on; equivalent to building a :class:`ShardPlan` and handing
    it to a :class:`ParallelExecutor` by hand.  The config is forwarded
    to the plan build, so a partitioner given *by name* is constructed
    against it (:meth:`Partitioner.from_config`) — which is what keeps
    the ``gram-prefix`` partitioner's tokenisation (``q``, gram padding,
    ``θ``) in lock-step with the engine's approximate operator.
    ``handoff`` selects the shard-input representation (see
    :meth:`ShardPlan.build`); the result records what was resolved.
    """
    config = config or RunConfig()
    plan = ShardPlan.build(
        left, right, attribute, shards, partitioner, config=config,
        handoff=handoff,
    )
    executor = ParallelExecutor(
        backend=backend,
        max_workers=max_workers,
        failure_policy=failure_policy,
        faults=faults,
    )
    return executor.run(plan, config, bus=bus, cancel=cancel)
