"""The event bus of the layered runtime.

Executions built by :class:`~repro.runtime.session.JoinSession` no longer
call their observers directly: the engine and the switch policy *publish*
typed events onto an :class:`EventBus`, and every interested component —
the :class:`~repro.core.monitor.Monitor`, the
:class:`~repro.core.trace.ExecutionTrace`, ad-hoc metrics collectors —
*subscribes* to the event types it cares about.  This decouples the four
layers (engine → runtime → linkage/bench/cli): new observers attach
without touching the execution loop, and the loop never grows
observer-specific plumbing again.

Event taxonomy
--------------
Events are dispatched **by concrete type**; any object can be an event.
The runtime publishes:

* :class:`~repro.joins.engine.StepBatch` — the engine's only step event:
  one aggregate per executed engine batch (a single step is a batch of
  one); the stream every step observer (monitor, trace, session
  accumulator, collectors) consumes — every executed step is covered by
  exactly one published batch;
* :class:`~repro.joins.base.MatchEvent` — one per matched pair, emitted by
  the engine *only when at least one subscriber is registered* (so the hot
  probe loop never pays for unobserved matches);
* :class:`~repro.joins.engine.SwitchRecord` — one per per-side operator
  switch performed by the engine;
* :class:`~repro.core.events.TransitionEvent` — one per state-machine
  transition enacted by a switch policy (a transition groups the
  per-side switches it caused);
* :class:`~repro.core.events.AssessmentEvent` — one per control-loop
  activation of the MAR policy, with the σ/µ/π verdict and the evaluated
  guards (both live in :mod:`repro.core.events`, because core observers
  consume them);
* :class:`ShardEvent` / :class:`ShardCompleted` — shard-tagged wrappers
  and per-shard lifecycle events published by the sharded execution
  layer (:mod:`repro.runtime.parallel`) on an ``AggregatedEventBus``;
* :class:`ShardFailed` / :class:`ShardRetrying` — the failure-semantics
  lifecycle: one ``ShardFailed`` per failed attempt (with the wrapped
  error and whether a retry follows), one ``ShardRetrying`` per retry
  scheduled, on every backend.

Ordering guarantee: a batch's ``MatchEvent``\\ s are published in emission
order, then the ``StepBatch`` covering them — the batch always arrives
after every match event it aggregates.  Subscribers to the same event type
run in subscription order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Type

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.runtime.shard_result import ShardResult

__all__ = [
    "EventBus",
    "Handler",
    "ShardCompleted",
    "ShardEvent",
    "ShardFailed",
    "ShardRetrying",
]

Handler = Callable[[object], None]


@dataclass(frozen=True, slots=True)
class ShardEvent:
    """A shard session's event, tagged with the shard it came from.

    Published on an :class:`~repro.runtime.parallel.AggregatedEventBus`
    *in addition to* the raw event, so shard-agnostic collectors keep
    working unchanged while shard-aware observers subscribe to this
    wrapper.
    """

    shard_id: int
    event: object


@dataclass(frozen=True, slots=True)
class ShardCompleted:
    """One shard finished; published by the shard driver on every backend.

    Always published in shard-id order: shard *k*'s event goes out as
    soon as shards ``0..k`` have all completed (head-of-line, a live
    progress feed), whichever backend ran them.  The natural feed for
    progress observers (:class:`~repro.runtime.collectors.ProgressCollector`).
    """

    shard_id: int
    #: The shard's match columns (counts, trace and final state included).
    result: "ShardResult"
    wall_seconds: float


@dataclass(frozen=True, slots=True)
class ShardFailed:
    """One shard attempt failed; published before the policy reacts.

    ``error`` is the wrapped
    :class:`~repro.runtime.errors.ShardExecutionError` (shard id,
    attempt, elapsed batches, cause).  ``will_retry`` tells observers
    whether a :class:`ShardRetrying` follows or the failure is terminal
    (re-raised under fail-fast, dropped-and-recorded under degrade).
    """

    shard_id: int
    attempt: int
    error: object
    will_retry: bool


@dataclass(frozen=True, slots=True)
class ShardRetrying:
    """A failed shard is being re-run (after ``delay_seconds`` backoff)."""

    shard_id: int
    next_attempt: int
    delay_seconds: float


class EventBus:
    """A minimal synchronous, type-keyed publish/subscribe bus.

    Handlers are registered per concrete event type and invoked in
    subscription order, synchronously, on :meth:`publish`.  The bus is the
    runtime's hot path (every engine batch and, when observed, every match
    event flows through it), so dispatch is a single dict lookup plus a loop — no inheritance
    walking, no filtering, no queues.
    """

    __slots__ = ("_handlers",)

    def __init__(self) -> None:
        self._handlers: Dict[Type, List[Handler]] = {}

    def subscribe(self, event_type: Type, handler: Handler) -> Handler:
        """Register ``handler`` for events of exactly ``event_type``.

        Returns the handler so the call can be used to keep a reference
        for :meth:`unsubscribe`.
        """
        if not callable(handler):
            raise TypeError(f"handler must be callable, got {handler!r}")
        self._handlers.setdefault(event_type, []).append(handler)
        return handler

    def unsubscribe(self, event_type: Type, handler: Handler) -> None:
        """Remove a previously registered handler (no-op if absent).

        The handler list object itself survives (emptied, not dropped), so
        publishers holding a :meth:`channel` reference stay current.
        """
        handlers = self._handlers.get(event_type)
        if handlers is None:
            return
        try:
            handlers.remove(handler)
        except ValueError:
            return

    def has_subscribers(self, event_type: Type) -> bool:
        """Whether any handler is registered for ``event_type``.

        Publishers of high-volume events (per-match events) check this
        before constructing/publishing, so unobserved event streams cost
        nothing.
        """
        return bool(self._handlers.get(event_type))

    def channel(self, event_type: Type) -> List[Handler]:
        """The *live* handler list for ``event_type`` (hot-path accessor).

        High-frequency publishers (the engine publishes one ``MatchEvent``
        per matched pair) may cache this list once and iterate it
        directly, skipping the per-event dict lookup of :meth:`publish`.
        The list object is stable for the lifetime of the bus — later
        ``subscribe`` / ``unsubscribe`` calls mutate it in place — and an
        empty list is falsy, so ``if channel:`` doubles as the
        has-subscribers check.
        """
        return self._handlers.setdefault(event_type, [])

    def subscriber_count(self, event_type: Type) -> int:
        """Number of handlers registered for ``event_type``."""
        return len(self._handlers.get(event_type, ()))

    def publish(self, event: object) -> None:
        """Dispatch ``event`` to every handler of its concrete type."""
        handlers = self._handlers.get(type(event))
        if handlers is None:
            return
        for handler in handlers:
            handler(event)
