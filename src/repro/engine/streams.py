"""Record streams.

The symmetric join operators consume their two inputs as *streams*: pull-
based sources that deliver one record at a time and cannot be rewound.  This
mirrors the paper's target scenario in which "a priori analysis of the
tables involved is not feasible" because the inputs only become available at
query time (mashup integration, continuous streams).

A :class:`RecordStream` is deliberately simpler than an
:class:`~repro.engine.iterators.Operator`: it has no lifecycle and no
statistics of its own; it only supports :meth:`next_record`, returning
``None`` on exhaustion.  Streams also remember how many records they have
delivered, which the symmetric joins use for scheduling.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

from repro.engine.table import Table
from repro.engine.tuples import Record, Schema


class RecordStream:
    """Abstract pull-based source of records.

    Subclasses implement :meth:`_next`.  The public :meth:`next_record`
    tracks the delivered-count and latches exhaustion (once ``None`` is
    returned, the stream stays exhausted).
    """

    #: Whether :meth:`next_records` is cheaper than repeated
    #: :meth:`next_record` calls.  Only true for in-memory streams; consumers
    #: that buffer ahead (the symmetric join engine's read-ahead) must not
    #: bulk-pull lazy streams, where asking for ``n`` records *blocks* until
    #: all ``n`` are produced — fatal for live/continuous sources.
    supports_bulk_pull = False

    def __init__(self, schema: Schema, name: str = "") -> None:
        self._schema = schema
        self.name = name or type(self).__name__
        self._delivered = 0
        self._exhausted = False

    @property
    def schema(self) -> Schema:
        """Schema of the records delivered by the stream."""
        return self._schema

    @property
    def delivered(self) -> int:
        """Number of records delivered so far."""
        return self._delivered

    @property
    def exhausted(self) -> bool:
        """Whether the stream has signalled exhaustion."""
        return self._exhausted

    def next_record(self) -> Optional[Record]:
        """Return the next record, or ``None`` when the stream is exhausted."""
        if self._exhausted:
            return None
        record = self._next()
        if record is None:
            self._exhausted = True
            return None
        self._delivered += 1
        return record

    def _next(self) -> Optional[Record]:
        raise NotImplementedError

    def next_records(self, limit: int) -> List[Record]:
        """Pull up to ``limit`` records in one call (bulk pull).

        Returns fewer than ``limit`` records exactly when the stream runs
        dry, in which case exhaustion is latched just as with
        :meth:`next_record`.  The base implementation loops over
        :meth:`next_record`; in-memory streams override it with a slice to
        amortise the per-record dispatch (used by the batched stepping of
        the symmetric join engine).
        """
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        records: List[Record] = []
        for _ in range(limit):
            record = self.next_record()
            if record is None:
                break
            records.append(record)
        return records

    def __iter__(self) -> Iterator[Record]:
        while True:
            record = self.next_record()
            if record is None:
                return
            yield record

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} delivered={self._delivered}"
            f"{' exhausted' if self._exhausted else ''}>"
        )


class ListStream(RecordStream):
    """A stream backed by an in-memory sequence of records."""

    supports_bulk_pull = True

    def __init__(
        self, schema: Schema, records: Sequence[Record], name: str = ""
    ) -> None:
        super().__init__(schema, name=name)
        self._records = list(records)
        self._cursor = 0

    def _next(self) -> Optional[Record]:
        if self._cursor >= len(self._records):
            return None
        record = self._records[self._cursor]
        self._cursor += 1
        return record

    def next_records(self, limit: int) -> List[Record]:
        """Bulk pull via a list slice (no per-record dispatch)."""
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        if self._exhausted or limit == 0:
            return []
        records = self._records[self._cursor : self._cursor + limit]
        self._cursor += len(records)
        self._delivered += len(records)
        if len(records) < limit:
            # The slice came up short, so the stream is drained: latch
            # exhaustion exactly as a ``None`` pull would have.
            self._exhausted = True
        return records

    @property
    def remaining(self) -> int:
        """Number of records not yet delivered."""
        return len(self._records) - self._cursor

    def __len__(self) -> int:
        return len(self._records)


class RowSliceStream(RecordStream):
    """A stream over selected rows of a row-addressable record source.

    The source is anything exposing ``schema`` and ``record(row) -> Record``
    (e.g. a join-key handoff block, see :mod:`repro.runtime.handoff`); the
    stream delivers ``source.record(row)`` for each row index in ``rows``,
    in order.  Rows may repeat — replicated sharding expresses replication
    as repeated indices rather than copied records.  Records are decoded
    lazily, one bulk pull at a time, so a shard worker never materialises
    rows it does not consume.

    Like :class:`ListStream` it is an in-memory source: bulk pulls are a
    tight loop over the index slice, and :func:`len` reports the total row
    count so sized-input heuristics keep working.
    """

    supports_bulk_pull = True

    def __init__(self, source, rows: Sequence[int], name: str = "") -> None:
        super().__init__(source.schema, name=name)
        self._source = source
        self._rows = rows
        self._cursor = 0

    def _next(self) -> Optional[Record]:
        if self._cursor >= len(self._rows):
            return None
        record = self._source.record(self._rows[self._cursor])
        self._cursor += 1
        return record

    def next_records(self, limit: int) -> List[Record]:
        """Bulk pull by decoding one slice of row indices."""
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        if self._exhausted or limit == 0:
            return []
        rows = self._rows[self._cursor : self._cursor + limit]
        record_of = self._source.record
        records = [record_of(row) for row in rows]
        self._cursor += len(records)
        self._delivered += len(records)
        if len(records) < limit:
            self._exhausted = True
        return records

    @property
    def remaining(self) -> int:
        """Number of records not yet delivered."""
        return len(self._rows) - self._cursor

    def __len__(self) -> int:
        return len(self._rows)


class TableStream(ListStream):
    """A stream over the records of a :class:`~repro.engine.table.Table`."""

    def __init__(self, table: Table, name: str = "") -> None:
        super().__init__(table.schema, table.records, name=name or table.name)


class IteratorStream(RecordStream):
    """A stream wrapping an arbitrary Python iterator of records."""

    def __init__(
        self, schema: Schema, iterator: Iterable[Record], name: str = ""
    ) -> None:
        super().__init__(schema, name=name)
        self._iterator = iter(iterator)

    def _next(self) -> Optional[Record]:
        return next(self._iterator, None)


class GeneratorStream(RecordStream):
    """A stream produced lazily by a zero-argument factory of iterables.

    Useful in tests and benchmarks to avoid materialising large inputs until
    the stream is actually pulled.
    """

    def __init__(
        self,
        schema: Schema,
        factory: Callable[[], Iterable[Record]],
        name: str = "",
    ) -> None:
        super().__init__(schema, name=name)
        self._factory = factory
        self._iterator: Optional[Iterator[Record]] = None

    def _next(self) -> Optional[Record]:
        if self._iterator is None:
            self._iterator = iter(self._factory())
        return next(self._iterator, None)


def interleave(
    left: Sequence[Record], right: Sequence[Record]
) -> List[tuple]:
    """Return an alternating (side, record) schedule over two record lists.

    The symmetric joins read their inputs in alternation (left, right, left,
    right, …) until one side is exhausted, then drain the other.  This
    helper builds that schedule explicitly — it is used by tests and by the
    data generator to reason about the scan order the join will follow.

    Returns a list of ``("left", record)`` / ``("right", record)`` pairs.
    """
    schedule: List[tuple] = []
    left_iter, right_iter = iter(left), iter(right)
    while True:
        progressed = False
        l_record = next(left_iter, None)
        if l_record is not None:
            schedule.append(("left", l_record))
            progressed = True
        r_record = next(right_iter, None)
        if r_record is not None:
            schedule.append(("right", r_record))
            progressed = True
        if not progressed:
            return schedule


#: A join/stream input: a live record stream or an in-memory table.
InputLike = Union[RecordStream, Table]


def as_stream(source: InputLike) -> RecordStream:
    """Accept a stream, a table, or any ``.stream()``-bearing source.

    Tables wrap in a :class:`TableStream`; sources exposing a
    ``stream()`` factory (e.g. a shard input) contribute the stream they
    build.  Streams pass through unchanged.
    """
    if isinstance(source, Table):
        return TableStream(source)
    if isinstance(source, RecordStream):
        return source
    stream_factory = getattr(source, "stream", None)
    if callable(stream_factory):
        return stream_factory()
    return source
