"""Parallel shard execution: the *execute* half of partition → execute → merge.

:func:`execute_shards` is the one shard driver: it runs every shard of a
:class:`~repro.runtime.sharding.ShardPlan` through its own
:class:`~repro.runtime.session.JoinSession` and yields each shard's
:class:`~repro.runtime.sharding.ShardOutcome` in shard-id order.
:class:`ParallelExecutor` merges them into a
:class:`~repro.runtime.sharding.ShardedJoinResult`, and
:meth:`repro.jobs.JobHandle.stream_matches` streams them.  On the
``"serial"`` backend attempts run inline, in the calling thread — the
bit-deterministic reference, whose shard events reach an
:class:`AggregatedEventBus` live, tagged via :class:`ShardEvent`.  On the
``"process"`` backend they run on a :class:`~repro.runtime.pool.WorkerPool`
from a pickled :class:`_ShardTask` that carries each side's join keys
only — as a shared-memory :class:`~repro.runtime.handoff.BlockDescriptor`
(the zero-copy handoff) or as its shard's key list — so the worker joins
one-column key records while the parent keeps the records.

Both reduce a shard session's result to match columns
(:class:`~repro.runtime.shard_result.ShardResult`) bound to the plan's
shard inputs, so they merge to the same result for the same plan
(`tests/runtime/test_sharding_equivalence.py`).  A cancel token stops
queued shards, and a running one at its next engine batch.  A
:class:`~repro.runtime.failures.FailurePolicy` decides, in the shard
driver alone, what a failed attempt leads to: a retry with deterministic
backoff, a dropped shard recorded for honest degraded accounting, or the
lowest failed shard id's :class:`~repro.runtime.errors.ShardExecutionError`.
Per-shard timeouts and injected faults
(:class:`~repro.runtime.faults.FaultPlan`) are enforced inside the one
attempt function (:func:`_run_attempt`); a clean attempt runs uncapped
engine batches, bit-identical to :meth:`JoinSession.run`.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

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
from repro.runtime.handoff import AttachedBlock, BlockDescriptor, CancelFlag, key_schema
from repro.runtime.pool import WorkerPool, shared_pool
from repro.runtime.session import AdaptiveJoinResult, JoinSession
from repro.runtime.shard_result import ShardResult
from repro.runtime.sharding import (
    Partitioner,
    PublishedPlanBlocks,
    ShardedJoinResult,
    ShardOutcome,
    ShardInput,
    ShardPlan,
)

__all__ = [
    "AggregatedEventBus",
    "FailureContext",
    "ParallelExecutor",
    "available_backends",
    "estimate_shard_payload_bytes",
    "execute_shards",
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


class _AttemptDeadline:
    """A cancel token that also trips when an attempt's deadline passes.

    Handed to ``JoinSession.run_batches`` like the caller's own token, so
    a hung or slow shard stops at its next batch boundary; ``timed_out``
    tells a timeout (raise :class:`ShardTimeoutError`) from the caller
    cancelling (return the partial outcome).
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
    """Drive one shard attempt, inline or in a pool worker.

    A clean attempt (no fault, no timeout) runs ``max_batch``-step engine
    batches (uncapped by default, as :meth:`JoinSession.run` does),
    sleeping ``batch_delay`` seconds after each.  A supervised one runs
    :data:`_SUPERVISED_BATCH`-step batches, checking the deadline and any
    injected fault at every boundary; a cooperative hang polls its token
    through ``sleep``.  Returns the :class:`AdaptiveJoinResult` (a
    cancelled partial when the *caller's* token tripped), or raises
    :class:`ShardTimeoutError` when the deadline trips and
    :class:`ShardExecutionError` around anything else, with shard id,
    attempt and elapsed batches attached and ``__cause__`` set.
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
    """One run's plan, configuration, bus, failure policy and fault plan.

    Built per run (:meth:`ParallelExecutor.context`) and handed to
    :func:`execute_shards`, which applies the policy and records dropped
    shards here.  ``clock`` and ``sleep`` are injectable, so retry backoff
    and timeout behaviour are deterministic under test.
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
            left_records=len(self.plan.left_shards[shard_id]),
            right_records=len(self.plan.right_shards[shard_id]),
        )
        self._failures[shard_id] = record

    def failure_records(self) -> Tuple[ShardFailure, ...]:
        """Dropped-shard records, in shard-id order."""
        return tuple(self._failures[shard_id] for shard_id in sorted(self._failures))


@dataclass
class ShardInputPayload:
    """One side's shard join keys, shipped to a worker process (pickle
    handoff): ``keys[i]`` is the normalised key of the shard's ``i``-th
    record, read under the one-column ``schema``."""

    schema: Schema
    keys: List[str]

    @classmethod
    def of(
        cls, shard: ShardInput, attribute: str, side_keys: Sequence[str]
    ) -> "ShardInputPayload":
        """The keys of ``shard``'s records on ``attribute``, sliced from
        the plan's ``side_keys`` by the shard's origins."""
        return cls(
            key_schema(shard.schema, attribute),
            [side_keys[origin] for origin in shard.origins],
        )

    def stream(self, name: str) -> ListStream:
        """The keys as a stream of one-column records."""
        schema = self.schema
        records = [Record.from_trusted(schema, (key,)) for key in self.keys]
        return ListStream(schema, records, name=name)


@dataclass
class _ShardTask:
    """The picklable payload a pool worker runs one shard attempt from.

    Each side is a :class:`~repro.runtime.handoff.BlockDescriptor` (the
    zero-copy handoff: O(descriptor) bytes, retries included) or a
    :class:`ShardInputPayload` of the shard's join keys (pickle handoff).
    The worker enforces the timeout and injected ``faults``, and checks
    the named ``cancel_flag`` (sleeping ``batch_delay`` seconds, a testing
    hook) after every ``max_batch``-step engine batch.
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

    With ``descriptors`` (the plan's published key blocks) both sides
    ship as descriptors; without, as their shard's key lists.
    """
    left_input = plan.left_shards[shard_id]
    right_input = plan.right_shards[shard_id]
    left: Union[BlockDescriptor, ShardInputPayload]
    right: Union[BlockDescriptor, ShardInputPayload]
    if descriptors is not None:
        left, right = descriptors
    else:
        left = ShardInputPayload.of(left_input, plan.attribute.left, plan.left_keys)
        right = ShardInputPayload.of(
            right_input, plan.attribute.right, plan.right_keys
        )
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
    """Pool worker: run one shard *attempt* from its pickled task.

    Through :func:`_run_attempt` on the real clock (an injected one cannot
    cross the process boundary); failures come back as picklable
    :class:`ShardExecutionError`\\ s for the shard driver's policy.  Attachments
    are closed on every path.  The session joins one-column key records,
    and only match columns (:class:`ShardResult`) go back: the parent
    holds the shard's records, and its output schema, in its plan.
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
                # mapped buffers; keys are decoded lazily as the join
                # consumes them.
                attached = payload.attach()
                attachments.append(attached)
                rows = attached.shard_rows(task.shard_id)
                streams.append(RowSliceStream(attached.block, rows, name=name))
            else:
                streams.append(payload.stream(name))
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


# -- the shard driver -------------------------------------------------------------------


def shared_memory(
    plan: ShardPlan,
) -> Tuple[Optional[PublishedPlanBlocks], Optional[CancelFlag]]:
    """A run's shared memory on a pool: the plan's blocks and a cancel flag.

    Either is ``None`` when refused (no blocks under the pickle handoff):
    tasks then ship records, and a running shard stops only at its end.
    """
    try:
        blocks = plan.publish_blocks()
    except OSError:
        blocks = None
    try:
        flag = CancelFlag.create()
    except OSError:
        flag = None
    return blocks, flag


#: Seconds between the shard driver's checks of the caller's cancel token.
_CANCEL_POLL_SECONDS = 0.05

#: ``(shard id, attempt)`` of a submitted attempt.
_Attempt = Tuple[int, int]


def _wrapped(error: BaseException, shard_id: int, attempt: int) -> ShardExecutionError:
    """``error`` as a :class:`ShardExecutionError` (as-is when it is one)."""
    if isinstance(error, ShardExecutionError):
        return error
    wrapped = ShardExecutionError(
        shard_id, attempt, 0, f"{type(error).__name__}: {error}"
    )
    wrapped.__cause__ = error
    return wrapped


def _run_inline(
    ctx: FailureContext, shard_id: int, attempt: int, cancel: Optional[object]
) -> Future:
    """Run one attempt in this thread; the returned future is already done."""
    future: Future = Future()
    plan = ctx.plan
    started = ctx.clock()
    try:
        shard_bus: Optional[EventBus] = None
        if ctx.bus is not None:
            shard_bus = EventBus()
            ctx.bus.forward_from(shard_id, shard_bus)
        result = _run_attempt(
            *plan.shard_streams(shard_id),
            plan.attribute,
            ctx.config,
            shard_id,
            attempt,
            shard_bus,
            cancel,
            ctx.policy.shard_timeout_seconds,
            ctx.faults.action_for(shard_id, attempt) if ctx.faults else None,
            ctx.clock,
            ctx.sleep,
        )
        future.set_result(
            (shard_id, ShardResult.from_session(result), ctx.clock() - started)
        )
    except Exception as error:  # noqa: BLE001 - the policy decides
        future.set_exception(error)
    return future


def _pinned(
    error: ShardExecutionError,
    running: Dict[Future, _Attempt],
    policy: FailurePolicy,
    lost: Set[int],
) -> ShardExecutionError:
    """The error a fail-fast run raises: the lowest failed shard id's.

    An in-flight attempt on a *lower* shard id may be about to fail
    fatally too and take the pin, so those (and only those) are awaited.
    """
    lower = {future for future, (shard, _) in running.items() if shard < error.shard_id}
    while lower:
        finished, lower = wait(lower, return_when=FIRST_COMPLETED)
        for future in finished:
            shard_id, attempt = running.pop(future)
            failure = future.exception()
            if (
                failure is not None
                and shard_id < error.shard_id
                and not policy.should_retry(attempt)
                and not (isinstance(failure, BrokenProcessPool) and shard_id not in lost)
            ):
                error = _wrapped(failure, shard_id, attempt)
        lower = {future for future in lower if running[future][0] < error.shard_id}
    return error


def execute_shards(
    plan: ShardPlan,
    config: RunConfig,
    ctx: FailureContext,
    pool: Optional[WorkerPool] = None,
    max_workers: Optional[int] = None,
    cancel: Optional[object] = None,
) -> Generator[ShardOutcome, None, None]:
    """Run every shard of ``plan`` and yield its outcome, in shard-id order.

    ``pool=None`` runs the attempts inline, one at a time (the serial
    backend).  Otherwise at most ``max_workers`` (default: every shard)
    attempts are in flight on ``pool``; the plan's blocks are published
    once for the run, and released with the run's cancel flag on every
    exit path once the attempts in flight have stopped.  A shard skipped
    by a cancel, or dropped by the policy, yields nothing; each yielded
    outcome is first published on ``ctx.bus`` as a :class:`ShardCompleted`.
    """
    published: Optional[PublishedPlanBlocks] = None
    flag: Optional[CancelFlag] = None
    queue: Deque[_Attempt] = deque((shard_id, 1) for shard_id in range(plan.shard_count))
    running: Dict[Future, _Attempt] = {}
    settled: Dict[int, Optional[ShardOutcome]] = {}
    lost: Set[int] = set()
    next_shard = 0
    policy = ctx.policy
    publish = ctx.bus.publish if ctx.bus is not None else lambda event: None
    try:
        if pool is None:
            limit, poll = 1, None

            def submit(shard_id: int, attempt: int) -> Future:
                return _run_inline(ctx, shard_id, attempt, cancel)

        else:
            limit = min(max_workers or plan.shard_count, plan.shard_count)
            poll = _CANCEL_POLL_SECONDS if cancel is not None else None
            _ensure_picklable(config, "the run configuration (RunConfig)")
            published, flag = shared_memory(plan)
            descriptors = published.descriptors if published is not None else None

            def submit(shard_id: int, attempt: int) -> Future:
                task = _shard_task(
                    plan,
                    config,
                    shard_id,
                    attempt,
                    descriptors,
                    policy.shard_timeout_seconds,
                    ctx.faults,
                    cancel_flag=flag.name if flag is not None else None,
                )
                return pool.submit(_run_shard_task, task)

        def top_up() -> None:
            if _cancelled(cancel):
                # Shards that never start are settled with nothing to yield.
                settled.update((shard_id, None) for shard_id, _ in queue)
                queue.clear()
                if flag is not None:
                    flag.set()
            while queue and len(running) < limit:
                attempt = queue.popleft()
                running[submit(*attempt)] = attempt

        while True:
            top_up()
            if not running:
                break
            done, _ = wait(running, timeout=poll, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=running.__getitem__):
                shard_id, attempt = running.pop(future)
                error = future.exception()
                if error is None:
                    _, result, wall_seconds = future.result()
                    settled[shard_id] = (
                        None
                        if result.never_ran
                        else ShardOutcome.of(plan, shard_id, result, wall_seconds)
                    )
                elif isinstance(error, BrokenProcessPool) and shard_id not in lost:
                    # A worker died and took every attempt in flight down
                    # with it: run this one again on the replaced pool.
                    lost.add(shard_id)
                    queue.appendleft((shard_id, attempt))
                else:
                    # The failure policy, applied here and nowhere else.
                    error = _wrapped(error, shard_id, attempt)
                    retry = policy.should_retry(attempt) and not _cancelled(cancel)
                    publish(ShardFailed(shard_id, attempt, error, retry))
                    if retry:
                        delay = policy.backoff_delay(attempt)
                        publish(ShardRetrying(shard_id, attempt + 1, delay))
                        if delay > 0:
                            ctx.sleep(delay)
                        queue.appendleft((shard_id, attempt + 1))
                    elif policy.drops_failed_shards:
                        ctx.record_failure(shard_id, attempt, error)
                        settled[shard_id] = None
                    else:
                        queue.clear()
                        raise _pinned(error, running, policy, lost)
            if pool is not None:
                top_up()  # the workers stay busy while the caller consumes
            while next_shard in settled:
                outcome = settled.pop(next_shard)
                next_shard += 1
                if outcome is not None:
                    publish(
                        ShardCompleted(
                            outcome.shard_id, outcome.result, outcome.wall_seconds
                        )
                    )
                    yield outcome
    finally:
        # Whatever is still in flight (a failure, a closed iterator) stops
        # at its next batch before its blocks and flag go away.
        for future in running:
            future.cancel()
        if flag is not None:
            flag.set()
        wait(running)
        if published is not None:
            published.release()
        if flag is not None:
            flag.close()


#: The execution backends: ``serial`` runs attempts inline, ``process`` on
#: a worker pool.
_BACKENDS = ("process", "serial")


def available_backends() -> Tuple[str, ...]:
    """Names of the execution backends, sorted."""
    return _BACKENDS


# -- the executor -----------------------------------------------------------------------


class ParallelExecutor:
    """Runs every shard of a plan through :func:`execute_shards` and merges.

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

    #: The pool process-backend runs use (``None``: :func:`shared_pool`).
    _pool: Optional[WorkerPool] = None

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

        Each shard gets a fresh :class:`JoinSession` from the same config:
        every shard adapts independently, relative budgets resolve against
        its own input sizes, and an unset ``config.parent_size`` lets it
        infer its own partition's parent size.  ``cancel`` (an
        ``is_set()``-style token) requests a mid-run stop; the merged
        result then holds the shards completed (or stopped part-way) and
        carries ``cancelled=True``.
        """
        ctx = self.context(plan, config or RunConfig(), bus)
        return self.merge(ctx, list(self.shards(ctx, cancel)), cancel)

    def context(
        self,
        plan: ShardPlan,
        config: RunConfig,
        bus: Optional[AggregatedEventBus] = None,
    ) -> FailureContext:
        """A fresh run's :class:`FailureContext` under this executor's policy."""
        # A plan built without the config in hand (or with a hand-built
        # partitioner) must still agree with the run it executes under —
        # the gram-prefix partitioner's recall guarantee depends on matching
        # tokenisation, so a mismatch is an error, not a silent loss.
        plan.partitioner.check_config(config)
        return FailureContext(
            plan,
            config,
            bus,
            self.failure_policy,
            faults=self.faults,
            clock=self._clock,
            sleep=self._sleep,
        )

    def shards(
        self, ctx: FailureContext, cancel: Optional[object] = None
    ) -> Generator[ShardOutcome, None, None]:
        """:func:`execute_shards` over ``ctx``'s plan on this executor's backend."""
        pool = None
        if self.backend == "process":
            count = ctx.plan.shard_count
            pool = self._pool or shared_pool(min(self.max_workers or count, count))
        return execute_shards(ctx.plan, ctx.config, ctx, pool, self.max_workers, cancel)

    def merge(
        self,
        ctx: FailureContext,
        outcomes: Sequence[ShardOutcome],
        cancel: Optional[object] = None,
    ) -> ShardedJoinResult:
        """The merged result of the ``outcomes`` :meth:`shards` yielded.

        A run is cancelled when a shard stopped part-way, or when the token
        is set and some shard neither completed nor was dropped.
        """
        plan = ctx.plan
        failures = ctx.failure_records()
        settled = {o.shard_id for o in outcomes} | {f.shard_id for f in failures}
        return ShardedJoinResult(
            shards=tuple(outcomes),
            backend=self.backend,
            partitioner=plan.partitioner.name or type(plan.partitioner).__name__,
            left_input_size=plan.left_input_size,
            right_input_size=plan.right_input_size,
            cancelled=any(outcome.result.cancelled for outcome in outcomes)
            or (_cancelled(cancel) and len(settled) < plan.shard_count),
            failed_shards=failures,
            handoff=plan.handoff,
        )


def estimate_shard_payload_bytes(
    plan: ShardPlan, config: Optional[RunConfig] = None, attempt: int = 1
) -> List[int]:
    """Pickled bytes the process backend ships per shard task.

    Builds, per shard, the task :func:`_shard_task` would submit for
    ``attempt`` under the plan's resolved handoff (descriptors with
    placeholder segment names, no segment allocated; or the shard's key
    lists) and measures ``len(pickle.dumps(task))`` — the bench's
    ``payload_bytes_per_shard``.
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

    Equivalent to building a :class:`ShardPlan` and handing it to a
    :class:`ParallelExecutor`.  The config reaches the plan build, so a
    partitioner given *by name* tokenises exactly as the engine's
    approximate operator does (:meth:`Partitioner.from_config`).
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
