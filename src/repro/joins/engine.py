"""The switchable symmetric-join engine.

The adaptive processor of :mod:`repro.core` does not drive two separate
operators; it drives **one** symmetric join whose per-side matching mode can
be changed between steps.  This module implements that engine.

One **step** of the engine moves the join from one quiescent state to the
next: it scans one tuple from one of the inputs (alternating while both have
tuples left, then draining the survivor), inserts it into its own side's
store and currently-maintained index, probes the opposite side according to
the scanned side's current :class:`~repro.joins.base.JoinMode`, and emits
every resulting :class:`~repro.joins.base.MatchEvent`.  Because the step
produces *all* matches of the scanned tuple before returning, the state
reached after each step is quiescent and a mode switch between steps is safe
(Sec. 2.1 of the paper).

Switching modes triggers the hash-table catch-up of Sec. 2.3: the index that
the newly selected mode probes on the opposite side is brought up to date
with the tuples scanned since that index was last current.  The engine
records each switch as a :class:`SwitchRecord` carrying the number of tuples
caught up, which the cost model turns into transition costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional
from typing import Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime wires the bus in)
    from repro.runtime.events import EventBus

from repro.engine.streams import RecordStream
from repro.engine.tuples import Record, Schema
from repro.joins.base import (
    JoinAttribute,
    JoinMode,
    JoinSide,
    MatchEvent,
    OperationCounters,
    SideState,
    StoredTuple,
)
from repro.joins.fastpath import GramInterner

#: Step-batch size used by :meth:`SymmetricJoinEngine.run_to_completion`.
_RUN_BATCH = 1024

#: Scan order from each side: ``(side, side scanned after it)`` pairs.
_SCAN_ORDER = {
    JoinSide.LEFT: ((JoinSide.LEFT, JoinSide.RIGHT), (JoinSide.RIGHT, JoinSide.LEFT)),
    JoinSide.RIGHT: ((JoinSide.RIGHT, JoinSide.LEFT), (JoinSide.LEFT, JoinSide.RIGHT)),
}

#: What a step scanning one side touches under fixed modes (see ``_route``).
_Route = Tuple[SideState, SideState, JoinMode, Callable[[], int], Callable[[], int]]


@dataclass(slots=True)
class StepBatch:
    """Aggregate of a contiguous run of engine steps.

    The engine's only step event: published once per
    :meth:`SymmetricJoinEngine.run_batch` call (single-stepping is
    ``run_batch(1)``, a batch of one), it is what every observer — monitor,
    trace, session accumulator, collectors — consumes.  Every executed step
    is covered by exactly one published batch, and batches never span a
    mode switch, so the two ``*_mode`` fields describe every step in the
    batch.

    Attributes
    ----------
    first_step:
        1-based number of the first step in the batch.
    count:
        Number of steps covered (≥ 1; empty batches are never published).
    left_steps, right_steps:
        How many of those steps scanned the left / right input
        (``left_steps + right_steps == count``).
    left_mode, right_mode:
        The per-side matching modes in force throughout the batch.
    match_events:
        All match events produced by the batch, flat, in emission order;
        each event carries its own ``step``.
    catch_up_tuples:
        Total tuples re-indexed mid-step because a probed index was stale
        (0 in steady state).
    sides:
        Per-step scan sides, populated only when the two sides run in
        *different* modes (the monitor then needs the per-step scan side to
        attribute its approximate-activity window); ``None`` otherwise.
    """

    first_step: int
    count: int
    left_steps: int
    right_steps: int
    left_mode: JoinMode
    right_mode: JoinMode
    match_events: List[MatchEvent] = field(default_factory=list)
    catch_up_tuples: int = 0
    sides: Optional[Tuple[JoinSide, ...]] = None

    @property
    def last_step(self) -> int:
        """1-based number of the final step in the batch."""
        return self.first_step + self.count - 1


@dataclass(frozen=True, slots=True)
class SwitchRecord:
    """One adaptive mode switch performed by the engine."""

    step: int
    side: JoinSide
    previous_mode: JoinMode
    new_mode: JoinMode
    catch_up_tuples: int


class SymmetricJoinEngine:
    """A symmetric hash join whose per-side matching mode can change at any step.

    Parameters
    ----------
    left, right:
        The two input streams.
    attribute:
        The join attribute pair.
    similarity_threshold:
        ``θ_sim``: the approximate-match threshold.  By default a candidate
        matches when it shares at least ``⌈θ_sim · g⌉`` q-grams with the
        probe value (``g`` = probe gram count), the paper's operator
        semantics; with ``verify_jaccard=True`` the full set-Jaccard test is
        applied instead.
    q:
        q-gram width.
    left_mode, right_mode:
        Initial matching modes (the adaptive algorithm starts both EXACT).
    verify_jaccard:
        Apply the strict Jaccard test on top of the shared-gram counter
        test (see :meth:`repro.joins.base.SideState.probe_qgram`).
    use_prefix_filter:
        Forwarded to the q-gram probe; False disables the reverse-frequency
        prefix optimisation (ablation).
    use_length_filter:
        Forwarded to the q-gram probe; False disables the Jaccard length
        filter layered under the prefix filter (ablation).  Either way the
        match set is unchanged (see
        :meth:`repro.joins.base.SideState.probe_qgram`).
    gram_verification:
        Only ``"bitset"`` is accepted (both sides' ``SideState`` reject
        anything else): probes always recover shared-gram counts from
        gram bitsets.
    scan_batch:
        How many records a step pulls from an input stream at a time
        into a per-side read-ahead buffer.  Bulk pulls amortise the
        per-record stream dispatch; scheduling (strict alternation while
        both inputs last) and every per-step observable are unaffected.
        Only streams advertising ``supports_bulk_pull`` (in-memory sources)
        are read ahead — lazy/live streams are always pulled one record at
        a time so the join never blocks waiting for future input.  ``1``
        disables read-ahead entirely.
    eager_indexing:
        When True both hash indexes of both sides are kept current at every
        step, so switches never need a catch-up.  This is the "pessimistic"
        alternative the paper rejects (Sec. 2.3) because it taxes the exact
        phases; exposed for the corresponding ablation benchmark.
    deduplicate:
        When true (default) a pair of tuples is emitted at most once even
        if mode switches would make it discoverable twice; this enforces
        the set semantics of the join result.
    bus:
        Optional :class:`~repro.runtime.events.EventBus` the engine
        publishes onto: every :class:`~repro.joins.base.MatchEvent` (only
        when the bus has ``MatchEvent`` subscribers — the hot loop never
        pays for unobserved matches), one :class:`StepBatch` aggregate per
        executed batch and every :class:`SwitchRecord` performed by
        :meth:`set_mode`.  ``None`` (the default) keeps the engine
        observer-free, as the non-adaptive operators use it.
    """

    def __init__(
        self,
        left: RecordStream,
        right: RecordStream,
        attribute: JoinAttribute,
        similarity_threshold: float = 0.85,
        q: int = 3,
        left_mode: JoinMode = JoinMode.EXACT,
        right_mode: JoinMode = JoinMode.EXACT,
        padded_qgrams: bool = True,
        verify_jaccard: bool = False,
        use_prefix_filter: bool = True,
        use_length_filter: bool = True,
        gram_verification: str = "bitset",
        scan_batch: int = 32,
        eager_indexing: bool = False,
        deduplicate: bool = True,
        bus: Optional["EventBus"] = None,
    ) -> None:
        if not 0.0 < similarity_threshold <= 1.0:
            raise ValueError(
                f"similarity threshold must be in (0, 1], got {similarity_threshold}"
            )
        if scan_batch < 1:
            raise ValueError(f"scan_batch must be at least 1, got {scan_batch}")
        self._streams: Dict[JoinSide, RecordStream] = {
            JoinSide.LEFT: left,
            JoinSide.RIGHT: right,
        }
        self.attribute = attribute
        self.similarity_threshold = similarity_threshold
        self.q = q
        # One interner for both sides: a value interned when stored on one
        # side is a tokenisation-cache hit when it probes the other.
        interner = GramInterner(q=q, padded=padded_qgrams)
        self.sides: Dict[JoinSide, SideState] = {
            JoinSide.LEFT: SideState(
                JoinSide.LEFT,
                attribute.left,
                q=q,
                padded_qgrams=padded_qgrams,
                interner=interner,
                gram_verification=gram_verification,
            ),
            JoinSide.RIGHT: SideState(
                JoinSide.RIGHT,
                attribute.right,
                q=q,
                padded_qgrams=padded_qgrams,
                interner=interner,
                gram_verification=gram_verification,
            ),
        }
        self.modes: Dict[JoinSide, JoinMode] = {
            JoinSide.LEFT: left_mode,
            JoinSide.RIGHT: right_mode,
        }
        self.verify_jaccard = verify_jaccard
        self.use_prefix_filter = use_prefix_filter
        self.use_length_filter = use_length_filter
        self._scan_batch = scan_batch
        self._scan_buffers: Dict[JoinSide, Deque[Record]] = {
            JoinSide.LEFT: deque(),
            JoinSide.RIGHT: deque(),
        }
        self.eager_indexing = eager_indexing
        self._deduplicate = deduplicate
        self.bus = bus
        # Hot-path channels: live handler lists cached once (see
        # EventBus.channel); an engine without a bus publishes nothing.
        if bus is not None:
            self._match_channel = bus.channel(MatchEvent)
            self._batch_channel = bus.channel(StepBatch)
        else:
            self._match_channel = None
            self._batch_channel = None
        self._emitted_pairs: Set[Tuple[int, int]] = set()
        self._next_scan = JoinSide.LEFT
        self._step = 0
        self._matches_emitted = 0
        self.switches: List[SwitchRecord] = []
        self.output_schema: Schema = self._streams[JoinSide.LEFT].schema.concat(
            self._streams[JoinSide.RIGHT].schema, name="join"
        )
        # The index each side must keep current depends on the *other*
        # side's mode; make the initial configuration consistent.
        for side in JoinSide:
            self.sides[side].index_for_mode(self.modes[side.other])

    # -- public state ------------------------------------------------------------

    @property
    def step_count(self) -> int:
        """Number of steps executed so far (== tuples scanned)."""
        return self._step

    @property
    def matches_emitted(self) -> int:
        """Number of matched pairs emitted so far (the monitor's ``O_t``)."""
        return self._matches_emitted

    @property
    def exhausted(self) -> bool:
        """True when both inputs are exhausted (and no read-ahead remains)."""
        return all(stream.exhausted for stream in self._streams.values()) and not any(
            self._scan_buffers.values()
        )

    def scanned(self, side: JoinSide) -> int:
        """Number of tuples scanned from ``side`` so far."""
        return self.sides[side].size

    def mode(self, side: JoinSide) -> JoinMode:
        """Current matching mode of ``side``."""
        return self.modes[side]

    def counters(self) -> OperationCounters:
        """Merged elementary-operation counters of both sides."""
        return self.sides[JoinSide.LEFT].counters.merge(
            self.sides[JoinSide.RIGHT].counters
        )

    # -- adaptive control ----------------------------------------------------------

    def set_mode(self, side: JoinSide, mode: JoinMode) -> Optional[SwitchRecord]:
        """Change the matching mode of ``side``; perform index catch-up.

        Returns the :class:`SwitchRecord` describing the switch, or ``None``
        if the side was already in the requested mode.  Safe to call between
        any two steps (every inter-step state is quiescent).
        """
        previous = self.modes[side]
        if previous is mode:
            return None
        self.modes[side] = mode
        # Tuples scanned from `side` probe the OTHER side's index; that
        # index must now be made current for the new mode.
        caught_up = self.sides[side.other].index_for_mode(mode)
        record = SwitchRecord(
            step=self._step,
            side=side,
            previous_mode=previous,
            new_mode=mode,
            catch_up_tuples=caught_up,
        )
        self.switches.append(record)
        if self.bus is not None:
            self.bus.publish(record)
        return record

    def set_modes(
        self, left_mode: JoinMode, right_mode: JoinMode
    ) -> List[SwitchRecord]:
        """Set both sides' modes; return the switches actually performed."""
        performed = []
        for side, mode in ((JoinSide.LEFT, left_mode), (JoinSide.RIGHT, right_mode)):
            switch = self.set_mode(side, mode)
            if switch is not None:
                performed.append(switch)
        return performed

    # -- execution ---------------------------------------------------------------

    def run_batch(self, limit: int) -> Optional[StepBatch]:
        """Execute up to ``limit`` steps as one amortised batch.

        The engine's only execution loop; a single step is
        ``run_batch(1)``.  One step scans one tuple, inserts it into its
        side's index and probes the other side — no per-step event object
        is built.  Match events are published one by one (in emission
        order) when ``MatchEvent`` has subscribers, and the aggregate
        :class:`StepBatch` is published once at the end, after every match
        event it covers.

        Returns ``None`` when the inputs are exhausted (no step executed).
        Mode switches remain legal between batches, never inside one.
        """
        if limit < 1:
            raise ValueError(f"limit must be at least 1, got {limit}")
        left_mode = self.modes[JoinSide.LEFT]
        right_mode = self.modes[JoinSide.RIGHT]
        hybrid = left_mode is not right_mode
        match_channel = self._match_channel
        # Modes are fixed for the whole batch: resolve each side's route once.
        routes = {side: self._route(side) for side in JoinSide}
        scan_next = self._scan_next
        probe = self._probe
        eager = self.eager_indexing
        first_step = self._step + 1
        count = 0
        left_steps = 0
        catch_up_total = 0
        match_events: List[MatchEvent] = []
        scan_sides: Optional[List[JoinSide]] = [] if hybrid else None
        for _ in range(limit):
            side, record = scan_next()
            if record is None:
                break
            self._step += 1
            own, other, mode, sync_own, sync_other = routes[side]
            stored = own.add(record)
            if eager:
                own.catch_up_exact()
                own.catch_up_qgram()
                other.catch_up_exact()
                other.catch_up_qgram()
            else:
                sync_own()
                catch_up_total += sync_other()
            matches = probe(side, stored, own, other, mode)
            if matches:
                match_events.extend(matches)
                if match_channel:
                    for event in matches:
                        for handler in match_channel:
                            handler(event)
            count += 1
            if side is JoinSide.LEFT:
                left_steps += 1
            if hybrid:
                scan_sides.append(side)
        if not count:
            return None
        batch = StepBatch(
            first_step=first_step,
            count=count,
            left_steps=left_steps,
            right_steps=count - left_steps,
            left_mode=left_mode,
            right_mode=right_mode,
            match_events=match_events,
            catch_up_tuples=catch_up_total,
            sides=tuple(scan_sides) if hybrid else None,
        )
        batch_channel = self._batch_channel
        if batch_channel:
            for handler in batch_channel:
                handler(batch)
        return batch

    def run_to_completion(self) -> List[MatchEvent]:
        """Run every remaining step and return all match events produced."""
        events: List[MatchEvent] = []
        extend = events.extend
        while True:
            batch = self.run_batch(_RUN_BATCH)
            if batch is None:
                return events
            if batch.match_events:
                extend(batch.match_events)
            if batch.count < _RUN_BATCH:
                return events

    # -- internals ---------------------------------------------------------------

    def _route(self, side: JoinSide) -> _Route:
        """What a step scanning ``side`` touches under the current modes.

        ``own`` keeps current the index the opposite side's mode probes,
        ``other`` the one ``side``'s mode probes.
        """
        own, other = self.sides[side], self.sides[side.other]
        mode = self.modes[side]
        sync_own = own.catch_up_for(self.modes[side.other])
        return own, other, mode, sync_own, other.catch_up_for(mode)

    def _scan_next(self) -> Tuple[JoinSide, Optional[Record]]:
        """Pick the next input to scan (alternating), pull one record.

        Records are pulled from the streams through per-side read-ahead
        buffers of ``scan_batch`` records (bulk pull); the schedule — strict
        alternation while both inputs last, then draining the survivor — is
        identical to pulling one record at a time.
        """
        first = self._next_scan
        buffers = self._scan_buffers
        for side, following in _SCAN_ORDER[first]:
            buffer = buffers[side]
            if not buffer:
                stream = self._streams[side]
                if stream.exhausted:
                    continue
                if stream.supports_bulk_pull and self._scan_batch > 1:
                    buffer.extend(stream.next_records(self._scan_batch))
                    if not buffer:
                        continue
                else:
                    # Lazy/live source: never read ahead — asking for a
                    # batch would block until the producer yields it all.
                    record = stream.next_record()
                    if record is None:
                        continue
                    self._next_scan = following
                    return side, record
            self._next_scan = following
            return side, buffer.popleft()
        return first, None

    def _probe(
        self,
        side: JoinSide,
        stored: StoredTuple,
        own: SideState,
        other: SideState,
        mode: JoinMode,
    ) -> List[MatchEvent]:
        """Probe ``other`` with ``stored``, scanned from ``side`` under ``mode``."""
        events: List[MatchEvent] = []
        append = events.append
        step = self._step
        emitted = self._emitted_pairs if self._deduplicate else None
        left_probes = side is JoinSide.LEFT
        if mode is JoinMode.EXACT:
            # Value-index partners are value-equal by construction: each is
            # an exact match with similarity 1.0 and no variant evidence.
            partners = other.probe_exact(stored.value)
            if partners:
                stored.matched_exactly = True
            for partner in partners:
                partner.matched_exactly = True
                left, right = (stored, partner) if left_probes else (partner, stored)
                if emitted is not None:
                    key = (left.ordinal, right.ordinal)
                    if key in emitted:
                        continue
                    emitted.add(key)
                append(MatchEvent(step, side, mode, left, right, 1.0, True, None))
            self._matches_emitted += len(events)
            own.counters.matches_emitted += len(events)
            return events
        scored = other.probe_qgram(
            stored.value,
            self.similarity_threshold,
            verify_jaccard=self.verify_jaccard,
            use_prefix_filter=self.use_prefix_filter,
            use_length_filter=self.use_length_filter,
        )
        # First pass: record exact-value matches on the flags, so that the
        # evidence reasoning below sees the complete picture for this step
        # (a probe that matches one stored tuple exactly and another only
        # approximately should blame the approximate partner, regardless of
        # the order in which the two partners come out of the hash table).
        for partner, _ in scored:
            if partner.value == stored.value:
                stored.matched_exactly = True
                partner.matched_exactly = True

        for partner, similarity in scored:
            exact_value = partner.value == stored.value
            if exact_value:
                similarity = 1.0
            evidence: Optional[JoinSide] = None
            if not exact_value:
                if partner.matched_exactly:
                    # Sec. 3.3: the stored partner already matched exactly
                    # with some earlier tuple, so the freshly scanned
                    # (probing) tuple is the variant — the probing side is a
                    # source of variants.
                    evidence = side
                elif stored.matched_exactly:
                    # Mirror image of the same reasoning: the probing tuple
                    # is known-good (it has an exact partner), so the stored
                    # tuple must be the variant and the *stored* side is the
                    # source.  The paper spells out only the first case; this
                    # symmetric completion is documented in DESIGN.md.
                    evidence = other.side
            left, right = (stored, partner) if left_probes else (partner, stored)
            if emitted is not None:
                key = (left.ordinal, right.ordinal)
                if key in emitted:
                    continue
                emitted.add(key)
            event = MatchEvent(
                step, side, mode, left, right, similarity, exact_value, evidence
            )
            append(event)
        self._matches_emitted += len(events)
        own.counters.matches_emitted += len(events)
        return events
