"""Ready-made event-bus subscribers (metrics collectors).

The monitor and the execution trace are the two *built-in* subscribers
every session wires up; the collectors here are optional extras a caller
attaches to the same bus for ad-hoc measurement, without touching the
session loop::

    bus = EventBus()
    tap = MatchTap().attach(bus)
    rates = StateDwellCollector().attach(bus)
    JoinSession(left, right, "location", config, bus=bus).run()
    tap.events          # every MatchEvent, in emission order
    rates.dwell_steps   # steps spent between consecutive transitions

Collectors follow one convention: ``attach(bus)`` subscribes and returns
``self`` so construction and attachment chain.

:class:`ProgressCollector` is the streaming-observer workhorse: it rides
``StepBatch`` (per engine batch, the serial backend) and
``ShardCompleted`` (per-shard, every backend including ``process``) and
powers ``JobHandle.progress()`` and the CLI ``--progress`` ticker.

Step-level collectors (:class:`StateDwellCollector`,
:class:`ThroughputCollector`) read the same ``StepBatch`` stream: batches
never span a policy activation, so per-batch sums are exact per-step
counts, and attaching a collector never changes how the engine runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.events import TransitionEvent
from repro.joins.base import JoinMode, MatchEvent
from repro.joins.engine import StepBatch, SwitchRecord
from repro.runtime.events import (
    EventBus,
    ShardCompleted,
    ShardFailed,
    ShardRetrying,
)


@dataclass
class MatchTap:
    """Collects every :class:`MatchEvent` published on the bus.

    Subscribing to per-match events is what *enables* their publication
    (the engine skips unobserved match streams), so attach the tap before
    the session runs.
    """

    events: List[MatchEvent] = field(default_factory=list)

    def attach(self, bus: EventBus) -> "MatchTap":
        bus.subscribe(MatchEvent, self.events.append)
        return self

    @property
    def approximate_count(self) -> int:
        """Matches found through the approximate operator."""
        return sum(1 for event in self.events if event.mode is JoinMode.APPROXIMATE)


@dataclass
class SwitchLog:
    """Collects every per-side :class:`SwitchRecord` the engine performs."""

    records: List[SwitchRecord] = field(default_factory=list)

    def attach(self, bus: EventBus) -> "SwitchLog":
        bus.subscribe(SwitchRecord, self.records.append)
        return self

    @property
    def total_catch_up_tuples(self) -> int:
        """Tuples re-indexed across all switches (the Sec. 2.3 cost)."""
        return sum(record.catch_up_tuples for record in self.records)


@dataclass
class StateDwellCollector:
    """Measures how long the session dwells between consecutive transitions.

    Complements the trace's per-state totals (Fig. 7) with the *runs*: one
    ``(state, steps)`` entry per maximal span spent in a state, in order.
    Useful for spotting oscillation (many short dwells) that per-state
    totals hide.

    The collector learns states from :class:`TransitionEvent`s; pass
    ``initial_label`` (the session's initial state label) at construction
    so the first dwell — which no transition precedes — is labelled too.
    """

    initial_label: str = ""
    dwell_steps: List[Tuple[str, int]] = field(default_factory=list)
    _steps_in_current: int = 0
    _current_label: str = ""

    def __post_init__(self) -> None:
        self._current_label = self.initial_label

    def attach(self, bus: EventBus) -> "StateDwellCollector":
        bus.subscribe(StepBatch, self._on_batch)
        bus.subscribe(TransitionEvent, self._on_transition)
        return self

    def _on_batch(self, batch: StepBatch) -> None:
        self._steps_in_current += batch.count

    def _on_transition(self, event: TransitionEvent) -> None:
        self.dwell_steps.append((event.from_state.label, self._steps_in_current))
        self._steps_in_current = 0
        self._current_label = event.to_state.label

    def finish(self, final_state_label: str = "") -> List[Tuple[str, int]]:
        """Close the last open dwell and return the completed list.

        The label of the closing dwell is tracked from the transitions
        observed (or ``initial_label`` when none fired); an explicit
        ``final_state_label`` overrides it.
        """
        if self._steps_in_current:
            label = final_state_label or self._current_label
            self.dwell_steps.append((label, self._steps_in_current))
            self._steps_in_current = 0
        return self.dwell_steps


@dataclass
class ThroughputCollector:
    """Counts steps, matches and matches per matching mode (a cheap live
    dashboard feed)."""

    steps: int = 0
    matches: int = 0
    matches_by_mode: Dict[str, int] = field(
        default_factory=lambda: {mode.value: 0 for mode in JoinMode}
    )

    def attach(self, bus: EventBus) -> "ThroughputCollector":
        bus.subscribe(StepBatch, self._on_batch)
        return self

    def _on_batch(self, batch: StepBatch) -> None:
        self.steps += batch.count
        events = batch.match_events
        if events:
            self.matches += len(events)
            by_mode = self.matches_by_mode
            for event in events:
                by_mode[event.mode.value] += 1


@dataclass(frozen=True)
class ProgressSnapshot:
    """One point-in-time reading of a :class:`ProgressCollector`.

    All counts are *raw*: in sharded runs under a replicating partitioner
    (``gram-prefix``) duplicate discoveries are only collapsed at merge time, so
    the live match count can exceed the final deduplicated result size.
    """

    #: Engine steps observed so far (summed over shards).
    steps: int
    #: The full run's step count, when known (``None`` for unsized streams).
    total_steps: Optional[int]
    #: Match events observed so far (raw, pre-dedup).
    matches: int
    #: Shards completed so far (0 for unsharded runs).
    shards_done: int
    #: Total shards in the run, when known (``None`` for unsharded runs).
    total_shards: Optional[int]
    #: Seconds since the collector was constructed.
    elapsed_seconds: float
    #: Shards that failed terminally (dropped by a degrade policy or
    #: about to abort the run under fail-fast).  0 on the happy path.
    shards_failed: int = 0
    #: Shard re-runs scheduled by a retry-capable failure policy.  Note
    #: that a retried shard's steps are re-observed (the step feed is
    #: raw), so ``steps`` can exceed ``total_steps`` under retries —
    #: :attr:`fraction` clamps at 1.
    retries: int = 0

    @property
    def fraction(self) -> Optional[float]:
        """Completed fraction in ``[0, 1]``, or ``None`` when sizes are unknown.

        Prefers the step count (fine-grained, live on every in-process
        backend); falls back to completed shards for the process backend,
        where step events cannot cross the worker boundary.
        """
        if self.total_steps:
            return min(self.steps / self.total_steps, 1.0)
        if self.total_shards:
            return min(self.shards_done / self.total_shards, 1.0)
        return None

    def to_json(self) -> Dict[str, object]:
        """The snapshot as a stable JSON-ready mapping (the wire format).

        One format for every observer: the CLI ``--progress`` ticker, the
        HTTP server's ``GET /jobs/{id}`` status payload and tests all read
        these keys.  Optional totals serialise as ``null`` (unknown), and
        the derived :attr:`fraction` is included so clients need no
        arithmetic of their own.
        """
        fraction = self.fraction
        return {
            "steps": self.steps,
            "total_steps": self.total_steps,
            "matches": self.matches,
            "shards_done": self.shards_done,
            "total_shards": self.total_shards,
            "shards_failed": self.shards_failed,
            "retries": self.retries,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "fraction": None if fraction is None else round(fraction, 4),
        }

    def describe(self) -> str:
        """One human-readable progress line (the CLI ``--progress`` ticker)."""
        parts = []
        if self.total_shards:
            parts.append(f"shards {self.shards_done}/{self.total_shards}")
        steps = f"{self.steps} steps"
        if self.total_steps:
            steps += f"/{self.total_steps}"
        parts.append(steps)
        parts.append(f"{self.matches} matches")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.shards_failed:
            parts.append(f"{self.shards_failed} shards FAILED")
        fraction = self.fraction
        if fraction is not None:
            parts.append(f"{fraction:.0%}")
        parts.append(f"{self.elapsed_seconds:.1f}s")
        return " · ".join(parts)


class ProgressCollector:
    """Live progress over a join run, fed by ``StepBatch``/``ShardCompleted``.

    The reusable observer behind ``JobHandle.progress()`` and the CLI's
    ``--progress`` ticker — attach it to any bus (a session's
    :class:`EventBus` or a sharded run's
    :class:`~repro.runtime.parallel.AggregatedEventBus`) and poll
    :meth:`snapshot` from anywhere, any time:

    * step counts come from the :class:`StepBatch` stream (one aggregate
      per engine batch, live on the serial backend; batch-level so
      progress observation never forces the engine off its fast path);
    * per-shard counts come from the :class:`ShardCompleted` lifecycle
      events — the only feed that crosses the process-backend boundary,
      so steps/matches observed through completed shards act as a floor
      when the step stream is absent.

    Thread-safe by construction: handlers only increment integers (atomic
    under the GIL, and serialised anyway by ``AggregatedEventBus``'s
    publish lock), and :meth:`snapshot` only reads.  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        total_steps: Optional[int] = None,
        total_shards: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.total_steps = total_steps
        self.total_shards = total_shards
        self._clock = clock
        self._started = clock()
        self._steps = 0
        self._step_matches = 0
        self._shards_done = 0
        self._shard_steps = 0
        self._shard_matches = 0
        self._shards_failed = 0
        self._retries = 0

    def attach(self, bus: EventBus) -> "ProgressCollector":
        bus.subscribe(StepBatch, self._on_batch)
        bus.subscribe(ShardCompleted, self._on_shard_completed)
        bus.subscribe(ShardFailed, self._on_shard_failed)
        bus.subscribe(ShardRetrying, self._on_shard_retrying)
        return self

    def restart_clock(self) -> None:
        """Re-stamp the elapsed-time baseline (call when the run starts).

        A collector is often constructed before the run it observes
        (``JobHandle`` builds one at ``build()`` time); without this,
        ``elapsed_seconds`` would include the idle gap between
        construction and execution.
        """
        self._started = self._clock()

    def _on_batch(self, batch: StepBatch) -> None:
        self._steps += batch.count
        if batch.match_events:
            self._step_matches += len(batch.match_events)

    def _on_shard_completed(self, event: ShardCompleted) -> None:
        self._shards_done += 1
        self._shard_steps += event.result.trace.total_steps
        self._shard_matches += event.result.result_size

    def _on_shard_failed(self, event: ShardFailed) -> None:
        # Per-attempt failures that retry are transient; only terminal
        # failures (dropped or about to abort the run) count here.
        if not event.will_retry:
            self._shards_failed += 1

    def _on_shard_retrying(self, event: ShardRetrying) -> None:
        self._retries += 1

    @property
    def shards_done(self) -> int:
        """Shards completed so far."""
        return self._shards_done

    @property
    def shards_failed(self) -> int:
        """Shards that failed terminally so far."""
        return self._shards_failed

    def snapshot(self) -> ProgressSnapshot:
        """The current progress reading (cheap; callable at any moment)."""
        return ProgressSnapshot(
            # The serial backend streams every step; the process backend
            # only reports through completed shards — take the larger
            # reading so both feeds work (they agree at run end).
            steps=max(self._steps, self._shard_steps),
            total_steps=self.total_steps,
            matches=max(self._step_matches, self._shard_matches),
            shards_done=self._shards_done,
            total_shards=self.total_shards,
            elapsed_seconds=self._clock() - self._started,
            shards_failed=self._shards_failed,
            retries=self._retries,
        )
