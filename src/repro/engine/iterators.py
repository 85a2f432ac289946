"""The iterator (OPEN/NEXT/CLOSE) protocol with explicit quiescent states.

The paper builds on the observation (Eurviriyanukul et al., cited as [11])
that pipelined, iterator-based physical operators can be *replaced* during
execution provided the replacement happens at a **quiescent state**: a state
in which a completed call to ``NEXT()`` leaves no partially processed work
outstanding, so the remainder of the computation can be carried out by a
different operator without re-processing or losing tuples.

This module captures that protocol:

* :class:`OperatorState` — the lifecycle states of Fig. 2 of the paper
  (created → open → producing/quiescent → closed).
* :class:`Operator` — the abstract base class implementing the protocol,
  including protocol-violation checks and per-operator statistics.
* :class:`OperatorStats` — counters shared by all operators (tuples read,
  tuples produced, NEXT calls, …) that the MAR monitor can observe.

The join operators in :mod:`repro.joins` extend :class:`Operator` with an
explicit ``is_quiescent()`` test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.engine.errors import IteratorProtocolError
from repro.engine.tuples import Record, Schema


class OperatorState(enum.Enum):
    """Lifecycle states of an iterator-based operator (paper Fig. 2).

    ``CREATED``
        The operator exists but ``open()`` has not been called.
    ``OPEN``
        ``open()`` has completed; ``next()`` may be called.
    ``EXHAUSTED``
        A call to ``next()`` returned ``None``; the operator has produced
        its complete output.  Further ``next()`` calls keep returning
        ``None``.
    ``CLOSED``
        ``close()`` has been called; no further calls are allowed.
    """

    CREATED = "created"
    OPEN = "open"
    EXHAUSTED = "exhausted"
    CLOSED = "closed"


@dataclass
class OperatorStats:
    """Execution counters maintained by every operator.

    These are the "observable quantities" that the MAR monitor reads
    periodically (Sec. 3 of the paper): most importantly the number of
    result tuples produced so far and the number of steps executed.
    """

    next_calls: int = 0
    tuples_produced: int = 0
    tuples_read_left: int = 0
    tuples_read_right: int = 0
    open_calls: int = 0
    close_calls: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def tuples_read(self) -> int:
        """Total input tuples consumed from both sides."""
        return self.tuples_read_left + self.tuples_read_right

    def snapshot(self) -> "OperatorStats":
        """Return an independent copy of the current counters."""
        return OperatorStats(
            next_calls=self.next_calls,
            tuples_produced=self.tuples_produced,
            tuples_read_left=self.tuples_read_left,
            tuples_read_right=self.tuples_read_right,
            open_calls=self.open_calls,
            close_calls=self.close_calls,
            extra=dict(self.extra),
        )


class Operator:
    """Abstract base class for iterator-style physical operators.

    Subclasses implement :meth:`_do_open`, :meth:`_do_next` and
    :meth:`_do_close`.  The public :meth:`open`, :meth:`next_record` and
    :meth:`close` wrappers enforce the protocol (raising
    :class:`IteratorProtocolError` on misuse) and maintain
    :class:`OperatorStats`.

    Operators are also plain Python iterables: iterating over an operator
    opens it (if needed), yields records until exhaustion and closes it.
    """

    def __init__(self, output_schema: Schema, name: str = "") -> None:
        self._output_schema = output_schema
        self._state = OperatorState.CREATED
        self.name = name or type(self).__name__
        self.stats = OperatorStats()

    # -- public protocol ---------------------------------------------------

    @property
    def output_schema(self) -> Schema:
        """Schema of the records produced by this operator."""
        return self._output_schema

    @property
    def state(self) -> OperatorState:
        """Current lifecycle state."""
        return self._state

    def open(self) -> None:
        """Prepare the operator for producing records (``OPEN()``)."""
        if self._state is not OperatorState.CREATED:
            raise IteratorProtocolError(
                f"{self.name}: open() called in state {self._state.value}"
            )
        self.stats.open_calls += 1
        self._do_open()
        self._state = OperatorState.OPEN

    def next_record(self) -> Optional[Record]:
        """Produce the next output record, or ``None`` when exhausted (``NEXT()``)."""
        if self._state is OperatorState.EXHAUSTED:
            return None
        if self._state is not OperatorState.OPEN:
            raise IteratorProtocolError(
                f"{self.name}: next_record() called in state {self._state.value}"
            )
        self.stats.next_calls += 1
        record = self._do_next()
        if record is None:
            self._state = OperatorState.EXHAUSTED
        else:
            self.stats.tuples_produced += 1
        return record

    def close(self) -> None:
        """Release any resources held by the operator (``CLOSE()``)."""
        if self._state is OperatorState.CLOSED:
            raise IteratorProtocolError(f"{self.name}: close() called twice")
        if self._state is OperatorState.CREATED:
            raise IteratorProtocolError(
                f"{self.name}: close() called before open()"
            )
        self.stats.close_calls += 1
        self._do_close()
        self._state = OperatorState.CLOSED

    def is_quiescent(self) -> bool:
        """Whether the operator is currently in a quiescent state.

        Default: any state reached after a completed ``next_record`` call is
        quiescent.  Operators with outstanding intra-call work (such as a
        probe tuple whose matches have not all been emitted, see SHJoin)
        override this.
        """
        return True

    # -- iteration convenience ---------------------------------------------

    def __iter__(self) -> Iterator[Record]:
        if self._state is OperatorState.CREATED:
            self.open()
        try:
            while True:
                record = self.next_record()
                if record is None:
                    return
                yield record
        finally:
            if self._state in (OperatorState.OPEN, OperatorState.EXHAUSTED):
                self.close()

    def run(self) -> list:
        """Open, drain and close the operator, returning all output records."""
        return list(self)

    # -- subclass hooks ------------------------------------------------------

    def _do_open(self) -> None:
        raise NotImplementedError

    def _do_next(self) -> Optional[Record]:
        raise NotImplementedError

    def _do_close(self) -> None:  # pragma: no cover - trivial default
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} state={self._state.value}>"
