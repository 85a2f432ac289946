"""A shard's result as match columns: the one shape every boundary reads.

A shard session ends with an
:class:`~repro.runtime.session.AdaptiveJoinResult`: one
:class:`~repro.joins.base.MatchEvent` per match, each holding both
:class:`~repro.joins.base.StoredTuple`\\ s and their
:class:`~repro.engine.tuples.Record`\\ s.  Shipping that object graph
from a worker process, into a job store and out again through a match
feed re-encodes every record of every match at each hop.  The records
are already in the parent — in the plan's shard inputs — so a shard
result travels as :class:`ShardResult` instead: five parallel columns,
one entry per match, in emission order,

* ``left`` / ``right`` — ``array('i')`` shard-local tuple ordinals;
* ``similarity`` — ``array('d')``;
* ``step`` — ``array('q')`` engine step of the emission;
* ``flags`` — one byte per match (bits below): probe side, mode,
  exact value match, variant evidence, and the final Sec. 3.3
  ``matched_exactly`` flag of both tuples,

plus the session's counters, trace, final state, output schema (the
plan's once bound) and ``cancelled`` flag as they are.  A pool worker
and the serial backend both reduce a session result with
:meth:`ShardResult.from_session`; the pool pickles it, the job store
base64-wraps the same pickle
(:func:`repro.jobs.serialization.encode_shard_outcome`), and pairs,
counts, dedup and the NDJSON feed read the columns directly.

:attr:`ShardResult.matches` rebuilds the events only when a caller asks,
from the shard records it was bound to (:meth:`ShardResult.bind`, done by
:meth:`~repro.runtime.sharding.ShardOutcome.of`): one ``StoredTuple`` per
distinct ordinal, so events that shared a tuple in the session share it
again, and every rebuilt event equals the session's field by field.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.state_machine import JoinState
from repro.core.trace import ExecutionTrace
from repro.engine.tuples import Record, Schema
from repro.joins.base import (
    JoinAttribute,
    JoinMode,
    JoinSide,
    MatchEvent,
    OperationCounters,
    StoredTuple,
)

__all__ = ["ShardResult", "mode_of"]

#: The flag byte of one match.
PROBE_RIGHT = 0x01
APPROXIMATE = 0x02
EXACT_VALUE = 0x04
EVIDENCE_LEFT = 0x08
EVIDENCE_RIGHT = 0x10
LEFT_MATCHED_EXACTLY = 0x20
RIGHT_MATCHED_EXACTLY = 0x40

#: Flag-bit value → enum, indexed by ``flags & PROBE_RIGHT`` and by
#: ``(flags & APPROXIMATE) >> 1``.
_SIDES = (JoinSide.LEFT, JoinSide.RIGHT)
_MODES = (JoinMode.EXACT, JoinMode.APPROXIMATE)

_PROBE_BITS = {JoinSide.LEFT: 0, JoinSide.RIGHT: PROBE_RIGHT}
_MODE_BITS = {JoinMode.EXACT: 0, JoinMode.APPROXIMATE: APPROXIMATE}
_EVIDENCE_BITS = {None: 0, JoinSide.LEFT: EVIDENCE_LEFT, JoinSide.RIGHT: EVIDENCE_RIGHT}
_EVIDENCE_OF = {bits: side for side, bits in _EVIDENCE_BITS.items()}


def _flag_byte(event: MatchEvent) -> int:
    flags = (
        _PROBE_BITS[event.probe_side]
        | _MODE_BITS[event.mode]
        | _EVIDENCE_BITS[event.variant_evidence]
    )
    if event.exact_value_match:
        flags |= EXACT_VALUE
    if event.left.matched_exactly:
        flags |= LEFT_MATCHED_EXACTLY
    if event.right.matched_exactly:
        flags |= RIGHT_MATCHED_EXACTLY
    return flags


def mode_of(flags: int) -> JoinMode:
    """The operator a match's flag byte records."""
    return _MODES[(flags & APPROXIMATE) >> 1]


def _stored_tuple(
    record: Record, attribute: str, ordinal: int, matched_exactly: bool
) -> StoredTuple:
    """The tuple ``SideState.add`` stored for ``record`` (value rule included)."""
    value = record.value_at(record.schema.position(attribute))
    if value is None:
        value = ""
    return StoredTuple(record, str(value), ordinal, matched_exactly)


@dataclass(slots=True)
class ShardResult:
    """One shard session's result as match columns (see the module docstring).

    Mirrors the :class:`~repro.runtime.session.AdaptiveJoinResult`
    surface — ``matches``, ``trace``, ``final_state``, ``counters``,
    ``output_schema``, ``cancelled``, ``result_size``, ``never_ran``,
    ``matched_pairs()`` — so a shard's result reads like a session's.
    Pickles to its columns and carried fields only; the binding to shard
    records (:meth:`bind`) stays behind and is no part of equality.
    """

    left: array
    right: array
    similarity: array
    step: array
    flags: bytes
    counters: OperationCounters
    trace: ExecutionTrace
    final_state: JoinState
    output_schema: Schema
    cancelled: bool = False
    _sources: Optional[Tuple[object, object, JoinAttribute]] = field(
        default=None, init=False, compare=False
    )
    _matches: Optional[Tuple[MatchEvent, ...]] = field(
        default=None, init=False, compare=False
    )

    @classmethod
    def from_session(cls, result) -> "ShardResult":
        """Reduce a session's :class:`AdaptiveJoinResult` to columns."""
        events = result.matches
        return cls(
            array("i", [event.left.ordinal for event in events]),
            array("i", [event.right.ordinal for event in events]),
            array("d", [event.similarity for event in events]),
            array("q", [event.step for event in events]),
            bytes([_flag_byte(event) for event in events]),
            result.counters,
            result.trace,
            result.final_state,
            result.output_schema,
            result.cancelled,
        )

    def __reduce__(self):
        carried = tuple(getattr(self, f.name) for f in fields(self) if f.compare)
        return (ShardResult, carried)

    def __repr__(self) -> str:
        return (
            f"ShardResult(matches={len(self.left)}, "
            f"final_state={self.final_state.label}, cancelled={self.cancelled})"
        )

    # -- the AdaptiveJoinResult surface ----------------------------------------------

    @property
    def result_size(self) -> int:
        """Number of matched pairs produced (``r_abs``)."""
        return len(self.left)

    @property
    def never_ran(self) -> bool:
        """Cancelled before the first engine step (see ``AdaptiveJoinResult``)."""
        return self.cancelled and self.trace.total_steps == 0

    def matched_pairs(self) -> List[Tuple[int, int]]:
        """Shard-local ``(left ordinal, right ordinal)`` pairs, in emission order."""
        return list(zip(self.left, self.right))

    # -- events, rebuilt on demand ---------------------------------------------------

    def bind(
        self,
        left_input,
        right_input,
        attribute: JoinAttribute,
        output_schema: Schema,
    ) -> "ShardResult":
        """Name the shard inputs :attr:`matches` is rebuilt from.

        ``left_input`` / ``right_input`` are the plan's
        :class:`~repro.runtime.sharding.ShardInput`\\ s (anything whose
        ``records[i]`` is the shard's ``i``-th record in arrival order);
        their records are read only when events are asked for.
        ``output_schema`` (the plan's) replaces the session's: a worker
        process joined one-column key records, so only the parent knows
        the full output schema.  Returns ``self``.
        """
        self._sources = (left_input, right_input, attribute)
        self.output_schema = output_schema
        self._matches = None
        return self

    def fits(self, left_size: int, right_size: int) -> bool:
        """Whether the columns agree in length and every ordinal indexes
        a shard of ``left_size`` × ``right_size`` records."""
        count = len(self.left)
        if not (
            len(self.right) == len(self.similarity) == len(self.step)
            == len(self.flags) == count
        ):
            return False
        return not count or (
            0 <= min(self.left) and max(self.left) < left_size
            and 0 <= min(self.right) and max(self.right) < right_size
        )

    @property
    def matches(self) -> Tuple[MatchEvent, ...]:
        """The session's match events, rebuilt from the bound shard records."""
        if self._matches is None:
            self._matches = tuple(self.events(range(len(self.left))))
        return self._matches

    def events(self, positions: Iterable[int]) -> List[MatchEvent]:
        """The match events at ``positions`` only, rebuilt as :attr:`matches` is."""
        if self._matches is not None:
            return [self._matches[position] for position in positions]
        if self._sources is None:
            raise RuntimeError(
                "this shard result is not bound to its shard records: its "
                "match events are rebuilt from them — take it from a "
                "ShardOutcome built with ShardOutcome.of(plan, ...)"
            )
        left_input, right_input, attribute = self._sources
        left_records = left_input.records
        right_records = right_input.records
        left_tuples: Dict[int, StoredTuple] = {}
        right_tuples: Dict[int, StoredTuple] = {}
        events: List[MatchEvent] = []
        append = events.append
        for position in positions:
            left, right = self.left[position], self.right[position]
            flags = self.flags[position]
            left_tuple = left_tuples.get(left)
            if left_tuple is None:
                left_tuple = left_tuples[left] = _stored_tuple(
                    left_records[left],
                    attribute.left,
                    left,
                    bool(flags & LEFT_MATCHED_EXACTLY),
                )
            right_tuple = right_tuples.get(right)
            if right_tuple is None:
                right_tuple = right_tuples[right] = _stored_tuple(
                    right_records[right],
                    attribute.right,
                    right,
                    bool(flags & RIGHT_MATCHED_EXACTLY),
                )
            append(
                MatchEvent(
                    self.step[position],
                    _SIDES[flags & PROBE_RIGHT],
                    mode_of(flags),
                    left_tuple,
                    right_tuple,
                    self.similarity[position],
                    bool(flags & EXACT_VALUE),
                    _EVIDENCE_OF[flags & (EVIDENCE_LEFT | EVIDENCE_RIGHT)],
                )
            )
        return events
