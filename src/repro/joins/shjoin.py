"""SHJoin — the exact symmetric (pipelined) hash join.

The classical dataflow symmetric hash join of Wilschut & Apers, exposed
through the iterator protocol.  Two hash tables (one per input) are built
incrementally; every scanned tuple is inserted into its own side's table and
probes the other side's table, so result tuples stream out without waiting
for either input to be exhausted.

A call to ``next_record`` either (a) returns the next pending match of the
tuple scanned most recently — the operator is then *not* quiescent — or (b)
scans a new tuple, computes all its matches and returns the first one (or
keeps scanning if there are none).  The operator is quiescent exactly when
the pending-match queue is empty, which is the condition the adaptive
framework checks before replacing it (Sec. 2.1 of the paper).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Union

from repro.engine.iterators import Operator, OperatorState
from repro.engine.streams import InputLike as _InputLike
from repro.engine.streams import as_stream
from repro.engine.tuples import Record
from repro.joins.base import JoinAttribute, JoinMode, JoinSide, MatchEvent, OperationCounters
from repro.joins.engine import SymmetricJoinEngine

#: Re-exported for back-compat; canonical home is :mod:`repro.engine.streams`.
InputLike = _InputLike


class _SymmetricJoinOperator(Operator):
    """Common iterator plumbing shared by SHJoin and SSHJoin."""

    _mode: JoinMode

    def __init__(
        self,
        left: InputLike,
        right: InputLike,
        attribute: Union[str, JoinAttribute],
        similarity_threshold: float = 0.85,
        q: int = 3,
        verify_jaccard: bool = False,
        use_length_filter: bool = True,
        name: str = "",
    ) -> None:
        left_stream = as_stream(left)
        right_stream = as_stream(right)
        if isinstance(attribute, str):
            attribute = JoinAttribute(attribute, attribute)
        self._engine = SymmetricJoinEngine(
            left_stream,
            right_stream,
            attribute,
            similarity_threshold=similarity_threshold,
            q=q,
            left_mode=self._mode,
            right_mode=self._mode,
            verify_jaccard=verify_jaccard,
            use_length_filter=use_length_filter,
        )
        super().__init__(self._engine.output_schema, name=name or type(self).__name__)
        self._pending: Deque[MatchEvent] = deque()

    # -- iterator protocol ----------------------------------------------------

    def _do_open(self) -> None:
        self._pending.clear()

    def _do_next(self) -> Optional[Record]:
        while not self._pending:
            batch = self._engine.run_batch(1)
            if batch is None:
                return None
            self.stats.tuples_read_left += batch.left_steps
            self.stats.tuples_read_right += batch.right_steps
            self._pending.extend(batch.match_events)
        event = self._pending.popleft()
        return event.output_record(self.output_schema)

    def is_quiescent(self) -> bool:
        """Quiescent iff the most recent scanned tuple has no pending matches."""
        return not self._pending

    def run(self) -> list:
        """Open, drain and close the operator, returning all output records.

        Overrides the generic record-at-a-time drain with the engine's
        batched stepping (:meth:`SymmetricJoinEngine.run_batch`), which
        amortises the per-tuple iterator dispatch for whole-input runs.
        Matches already pending from earlier incremental consumption come
        first, so the output is identical to ``list(self)``.
        """
        if self._state not in (OperatorState.CREATED, OperatorState.OPEN):
            return list(self)  # EXHAUSTED/CLOSED: defer to the generic path
        schema = self.output_schema
        return [event.output_record(schema) for event in self.run_events()]

    def run_events(self) -> list:
        """Drain the open operator like :meth:`run`, but return its match
        events: the output records are ``event.output_record(schema)`` of
        each, in order, built only by a caller that wants them."""
        if self._state is OperatorState.CREATED:
            self.open()
        events = list(self._pending)
        self._pending.clear()
        events.extend(self._engine.run_to_completion())
        stats = self.stats
        stats.next_calls += len(events) + 1
        stats.tuples_produced += len(events)
        stats.tuples_read_left = self._engine.scanned(JoinSide.LEFT)
        stats.tuples_read_right = self._engine.scanned(JoinSide.RIGHT)
        self._state = OperatorState.EXHAUSTED
        self.close()
        return events

    # -- introspection ----------------------------------------------------------

    @property
    def engine(self) -> SymmetricJoinEngine:
        """The underlying switchable engine (exposed for tests and benchmarks)."""
        return self._engine

    def operation_counters(self) -> OperationCounters:
        """Elementary-operation counters accumulated so far (paper Table 1)."""
        return self._engine.counters()

    @property
    def matches_emitted(self) -> int:
        """Number of matched pairs produced so far."""
        return self._engine.matches_emitted


class SHJoin(_SymmetricJoinOperator):
    """Exact symmetric hash join.

    Parameters
    ----------
    left, right:
        Input tables or record streams.
    attribute:
        Either a single attribute name present in both inputs, or a
        :class:`~repro.joins.base.JoinAttribute` naming one attribute per
        side.

    Examples
    --------
    >>> from repro.engine.table import Table
    >>> from repro.engine.tuples import Schema
    >>> schema = Schema(["loc"])
    >>> atlas = Table.from_rows(schema, [["GENOVA"], ["MILANO"]], name="atlas")
    >>> accidents = Table.from_rows(schema, [["GENOVA"]], name="accidents")
    >>> len(SHJoin(atlas, accidents, "loc").run())
    1
    """

    _mode = JoinMode.EXACT

    def __init__(
        self,
        left: InputLike,
        right: InputLike,
        attribute: Union[str, JoinAttribute],
        q: int = 3,
        name: str = "",
    ) -> None:
        # The similarity threshold is irrelevant for the exact operator but
        # the shared engine still requires a valid value.
        super().__init__(
            left, right, attribute, similarity_threshold=1.0, q=q, name=name or "SHJoin"
        )
