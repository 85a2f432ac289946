"""Zero-copy shard handoff: columnar record blocks over shared memory.

The process backend used to pickle every shard's full record payload into
its worker — and gram-replicated plans multiplied that cost by the
replication factor, because each replica shard carried its own *copy* of
the records.  This module replaces the payload with a compile-once
representation:

* :class:`SideBlock` — one side's record set encoded **once** into flat
  columnar buffers: a contiguous ``payload`` byte string holding every
  cell's value bytes, an ``array('Q')`` offset table (one entry per cell
  plus a terminator) and an ``array('B')`` type-tag table.  Cells are laid
  out column-major (cell ``col * row_count + row``).  Decoding row ``r``
  walks one offset/tag pair per column and rebuilds the record through
  :meth:`~repro.engine.tuples.Record.from_trusted` — no per-row dicts, no
  re-validation.
* :func:`publish_block` — copies a :class:`SideBlock` (plus every shard's
  row-index array, so replication stays *indices*, never copies) into a
  single :class:`multiprocessing.shared_memory.SharedMemory` segment and
  returns a :class:`PublishedBlock` whose :class:`BlockDescriptor` is the
  only thing a worker ever receives on the wire.
* :meth:`BlockDescriptor.attach` — maps the segment back in a worker and
  exposes the same :class:`SideBlock` interface over plain
  ``memoryview``s: attaching copies nothing; individual cell values are
  materialised lazily as the shard's join consumes them.

Value encoding is exact, not lossy: ``None``/``True``/``False`` are pure
tags, ``str`` is UTF-8, ``int`` is ASCII decimal (arbitrary precision),
``float`` is the IEEE-754 little-endian bit pattern — so decoded records
are ``==`` to (and hash identically to) the originals, which is what keeps
the shared-memory path bit-identical to the pickle path.  Values of any
other type (or of subclasses of the supported types, which would decode to
the base type and break equality) make the side *unencodable*:
:meth:`SideBlock.encode` returns ``None`` and the plan falls back to the
classic pickle handoff.

Lifecycle: a :class:`SideBlock` is ordinary process memory owned by the
:class:`~repro.runtime.sharding.ShardPlan`.  Shared-memory segments — the
plan blocks plus a one-byte :class:`CancelFlag` — live for one run on a
pool (the shard driver unlinks them in a ``finally``, whatever ends the
run) or, in the server, from a job's first dispatch until it closes.
Every segment created here is tracked so tests (and the CI zero-copy
smoke) can assert :func:`live_block_count` returns to zero.
"""

from __future__ import annotations

import secrets
import struct
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.tuples import Record, Schema

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exercised via _FORCE_UNAVAILABLE
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "HANDOFF_MODES",
    "BlockDescriptor",
    "CancelFlag",
    "PublishedBlock",
    "SideBlock",
    "live_block_count",
    "live_block_names",
    "publish_block",
    "share_segment_tracker",
    "shared_memory_available",
]

#: The shard-handoff modes accepted by ``ShardPlan.build`` and everything
#: layered above it (``run_sharded``, the jobs builder, ``repro link``).
#: ``auto`` uses columnar blocks when both sides encode and falls back to
#: pickle otherwise; the explicit modes force one representation (and
#: ``shared-memory`` raises on unencodable inputs rather than silently
#: shipping pickles).
HANDOFF_MODES = ("auto", "pickle", "shared-memory")

_TAG_NONE = 0
_TAG_STR = 1
_TAG_INT = 2
_TAG_FLOAT = 3
_TAG_TRUE = 4
_TAG_FALSE = 5

_FLOAT_STRUCT = struct.Struct("<d")

#: Set by tests to simulate a platform without ``shared_memory``.
_FORCE_UNAVAILABLE = False


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` can back a publish."""
    return _shared_memory is not None and not _FORCE_UNAVAILABLE


class _Unencodable(Exception):
    """Internal signal: a cell value has no columnar encoding."""


class SideBlock:
    """One side's records as flat columnar buffers.

    ``payload``/``offsets``/``tags`` may be the owning ``bytes``/``array``
    objects (built by :meth:`encode`) or borrowed ``memoryview``s over a
    shared-memory segment (built by :meth:`BlockDescriptor.attach`); the
    decode path is identical for both.
    """

    __slots__ = ("schema", "row_count", "payload", "offsets", "tags", "stream_name")

    def __init__(
        self,
        schema: Schema,
        row_count: int,
        payload,
        offsets,
        tags,
        stream_name: str = "",
    ) -> None:
        self.schema = schema
        self.row_count = row_count
        self.payload = payload
        self.offsets = offsets
        self.tags = tags
        self.stream_name = stream_name

    @property
    def column_count(self) -> int:
        return len(self.schema)

    @property
    def payload_size(self) -> int:
        return len(self.payload)

    @classmethod
    def encode(
        cls, schema: Schema, records: Sequence[Record], stream_name: str = ""
    ) -> Optional["SideBlock"]:
        """Encode ``records`` columnar, or return ``None`` if any cell
        holds a value outside the encodable set (exactly ``None``, ``bool``,
        ``int``, ``float``, ``str`` — subclasses excluded)."""
        row_count = len(records)
        column_count = len(schema)
        payload = bytearray()
        offsets = array("Q", bytes(8 * (row_count * column_count + 1)))
        tags = array("B", bytes(row_count * column_count))
        cell = 0
        try:
            for col in range(column_count):
                for record in records:
                    value = record.value_at(col)
                    if value is None:
                        tag = _TAG_NONE
                    else:
                        kind = type(value)
                        if kind is str:
                            payload += value.encode("utf-8")
                            tag = _TAG_STR
                        elif kind is bool:
                            tag = _TAG_TRUE if value else _TAG_FALSE
                        elif kind is int:
                            payload += b"%d" % value
                            tag = _TAG_INT
                        elif kind is float:
                            payload += _FLOAT_STRUCT.pack(value)
                            tag = _TAG_FLOAT
                        else:
                            raise _Unencodable
                    tags[cell] = tag
                    cell += 1
                    offsets[cell] = len(payload)
        except (_Unencodable, UnicodeEncodeError):
            return None
        return cls(
            schema,
            row_count,
            bytes(payload),
            offsets,
            tags,
            stream_name=stream_name,
        )

    def record(self, row: int) -> Record:
        """Decode row ``row`` into a :class:`Record` (fresh value tuple)."""
        n = self.row_count
        payload = self.payload
        offsets = self.offsets
        tags = self.tags
        values: List[object] = []
        append = values.append
        for cell in range(row, n * self.column_count + row, n):
            tag = tags[cell]
            if tag == _TAG_STR:
                append(str(payload[offsets[cell] : offsets[cell + 1]], "utf-8"))
            elif tag == _TAG_NONE:
                append(None)
            elif tag == _TAG_INT:
                append(int(bytes(payload[offsets[cell] : offsets[cell + 1]])))
            elif tag == _TAG_FLOAT:
                append(_FLOAT_STRUCT.unpack_from(payload, offsets[cell])[0])
            elif tag == _TAG_TRUE:
                append(True)
            else:
                append(False)
        return Record.from_trusted(self.schema, tuple(values))

    def records(self, rows: Sequence[int]) -> List[Record]:
        """Decode a batch of row indices (repeats allowed)."""
        record = self.record
        return [record(row) for row in rows]

    def __repr__(self) -> str:
        return (
            f"<SideBlock rows={self.row_count} cols={self.column_count} "
            f"payload={self.payload_size}B>"
        )


class BlockDescriptor:
    """The picklable handle a worker receives instead of record payloads.

    Carries the shared-memory segment *name* plus the integers needed to
    re-derive the segment's region layout (see :func:`_region_layout`):
    row/column counts, payload size and the per-shard row-array extents.
    Everything heavy — cell bytes, offset/tag tables, the shard row-index
    arrays themselves — lives in the segment.  A descriptor pickles to a
    few hundred bytes regardless of how many records the plan holds, which
    is what makes retry resubmission O(descriptor).
    """

    __slots__ = (
        "name",
        "schema_attributes",
        "schema_name",
        "stream_name",
        "row_count",
        "payload_size",
        "shard_extents",
    )

    def __init__(
        self,
        name: str,
        schema_attributes: Tuple[str, ...],
        schema_name: str,
        stream_name: str,
        row_count: int,
        payload_size: int,
        shard_extents: Tuple[int, ...],
    ) -> None:
        self.name = name
        self.schema_attributes = schema_attributes
        self.schema_name = schema_name
        self.stream_name = stream_name
        self.row_count = row_count
        self.payload_size = payload_size
        self.shard_extents = shard_extents

    # __slots__ classes need explicit pickle support.
    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    @property
    def column_count(self) -> int:
        return len(self.schema_attributes)

    def attach(self) -> "AttachedBlock":
        """Map the segment and return a zero-copy view over it."""
        if not shared_memory_available():  # pragma: no cover - guarded upstream
            raise RuntimeError("shared_memory is unavailable; cannot attach")
        try:
            # Python >= 3.13: opt out of resource_tracker registration for
            # an attach-only mapping (the coordinator owns the segment).
            segment = _shared_memory.SharedMemory(name=self.name, track=False)
        except TypeError:
            segment = _shared_memory.SharedMemory(name=self.name)
        return AttachedBlock(self, segment)

    def __repr__(self) -> str:
        return (
            f"<BlockDescriptor {self.name!r} rows={self.row_count} "
            f"shards={len(self.shard_extents)}>"
        )


def _region_layout(
    row_count: int,
    column_count: int,
    payload_size: int,
    shard_extents: Sequence[int],
) -> Tuple[int, int, int, int, int]:
    """Byte offsets of the segment regions, plus the total size.

    Layout: ``[offsets 'Q'][shard rows 'Q'][tags 'B'][payload]`` — the
    8-byte-aligned regions first so the memoryview casts in
    :class:`AttachedBlock` are always aligned.
    """
    offsets_at = 0
    offsets_bytes = 8 * (row_count * column_count + 1)
    rows_at = offsets_at + offsets_bytes
    rows_bytes = 8 * sum(shard_extents)
    tags_at = rows_at + rows_bytes
    tags_bytes = row_count * column_count
    payload_at = tags_at + tags_bytes
    # shared_memory rejects size=0; keep at least one byte.
    total = max(payload_at + payload_size, 1)
    return offsets_at, rows_at, tags_at, payload_at, total


class AttachedBlock:
    """A worker-side zero-copy view of a published block.

    Exposes the :class:`SideBlock` decode interface (``.block``) and the
    per-shard row-index arrays (``.shard_rows``), all as ``memoryview``
    casts over the mapped segment.  :meth:`close` releases every exported
    view before closing the mapping — ``SharedMemory.close`` raises
    ``BufferError`` otherwise — and is idempotent.
    """

    def __init__(self, descriptor: BlockDescriptor, segment) -> None:
        self._segment = segment
        self._views: List[memoryview] = []
        layout = _region_layout(
            descriptor.row_count,
            descriptor.column_count,
            descriptor.payload_size,
            descriptor.shard_extents,
        )
        offsets_at, rows_at, tags_at, payload_at, _ = layout
        buf = segment.buf

        def region(start: int, stop: int) -> memoryview:
            view = buf[start:stop]
            self._views.append(view)
            return view

        offsets = region(offsets_at, rows_at).cast("Q")
        self._views.append(offsets)
        tags = region(tags_at, payload_at).cast("B")
        self._views.append(tags)
        payload = region(payload_at, payload_at + descriptor.payload_size)
        schema = Schema(descriptor.schema_attributes, name=descriptor.schema_name)
        self.block = SideBlock(
            schema,
            descriptor.row_count,
            payload,
            offsets,
            tags,
            stream_name=descriptor.stream_name,
        )
        rows_all = region(rows_at, tags_at).cast("Q")
        self._views.append(rows_all)
        self._shard_rows: List[memoryview] = []
        cursor = 0
        for extent in descriptor.shard_extents:
            rows = rows_all[cursor : cursor + extent]
            self._views.append(rows)
            self._shard_rows.append(rows)
            cursor += extent
        self._closed = False

    def shard_rows(self, shard_id: int) -> memoryview:
        """The row-index array of ``shard_id`` (a ``'Q'`` memoryview)."""
        return self._shard_rows[shard_id]

    def close(self) -> None:
        """Release every view and close the mapping (never unlinks)."""
        if self._closed:
            return
        self._closed = True
        self.block.payload = b""
        self.block.offsets = ()
        self.block.tags = ()
        self._shard_rows = []
        for view in reversed(self._views):
            view.release()
        self._views = []
        self._segment.close()


# ---------------------------------------------------------------------------
# Publish side: segment creation, registry, teardown
# ---------------------------------------------------------------------------

#: Live segments created by this process, by name.  ``PublishedBlock.release``
#: removes entries; tests assert the registry drains to zero after success,
#: failure, cancel and resume.
_LIVE_BLOCKS: Dict[str, object] = {}


def live_block_count() -> int:
    """Number of shared-memory segments this process created and has not
    yet released — the leak-test observable."""
    return len(_LIVE_BLOCKS)


def live_block_names() -> Tuple[str, ...]:
    """Names of the live segments (diagnostics and leak tests)."""
    return tuple(_LIVE_BLOCKS)


def build_descriptor(
    block: SideBlock,
    shard_rows: Sequence[Sequence[int]],
    name: str = "<unpublished>",
) -> BlockDescriptor:
    """The descriptor ``publish_block`` would ship, without creating a
    segment — used to *measure* wire payloads (`estimate task bytes`)
    where actually allocating shared memory would be wasteful."""
    return BlockDescriptor(
        name=name,
        schema_attributes=block.schema.attributes,
        schema_name=block.schema.name,
        stream_name=block.stream_name,
        row_count=block.row_count,
        payload_size=block.payload_size,
        shard_extents=tuple(len(rows) for rows in shard_rows),
    )


def publish_block(
    block: SideBlock, shard_rows: Sequence[Sequence[int]]
) -> "PublishedBlock":
    """Copy ``block`` plus every shard's row-index array into one fresh
    shared-memory segment and return its handle.

    The single copy here is the *entire* per-run handoff cost: it is paid
    once per side, not once per shard per attempt.  Raises ``OSError`` if
    the platform refuses the allocation (callers fall back to pickle).
    """
    if not shared_memory_available():
        raise RuntimeError("shared_memory is unavailable; cannot publish")
    extents = tuple(len(rows) for rows in shard_rows)
    offsets_at, rows_at, tags_at, payload_at, total = _region_layout(
        block.row_count, block.column_count, block.payload_size, extents
    )
    name = f"repro-blk-{secrets.token_hex(6)}"
    segment = _shared_memory.SharedMemory(name=name, create=True, size=total)
    try:
        buf = segment.buf
        offsets_bytes = block.offsets.tobytes()
        buf[offsets_at : offsets_at + len(offsets_bytes)] = offsets_bytes
        cursor = rows_at
        for rows in shard_rows:
            rows_bytes = array("Q", rows).tobytes()
            buf[cursor : cursor + len(rows_bytes)] = rows_bytes
            cursor += len(rows_bytes)
        tags_bytes = block.tags.tobytes()
        buf[tags_at : tags_at + len(tags_bytes)] = tags_bytes
        buf[payload_at : payload_at + block.payload_size] = block.payload
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    descriptor = build_descriptor(block, shard_rows, name=name)
    _LIVE_BLOCKS[name] = segment
    return PublishedBlock(descriptor, segment)


class PublishedBlock:
    """A shared-memory segment owned by the publishing coordinator."""

    def __init__(self, descriptor: BlockDescriptor, segment) -> None:
        self.descriptor = descriptor
        self._segment = segment
        self._released = False

    @property
    def name(self) -> str:
        return self.descriptor.name

    def release(self) -> None:
        """Close and unlink the segment; idempotent.

        Called from the shard driver's ``finally``, so the segment dies
        with the run on every exit path — success, shard failure,
        cancellation, resume re-publishes a fresh one.
        """
        if self._released:
            return
        self._released = True
        _LIVE_BLOCKS.pop(self.descriptor.name, None)
        self._segment.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __repr__(self) -> str:
        return f"<PublishedBlock {self.descriptor.name!r} released={self._released}>"


class CancelFlag:
    """A one-byte cancel token that crosses the process boundary.

    The coordinator :meth:`create`\\ s it (a shared-memory segment counted
    by :func:`live_block_count`, like any published block), ships its
    :attr:`name` inside a shard task and calls :meth:`set`; a worker
    :meth:`open`\\ s it by name and hands it to ``run_batches`` as its
    cancel token, so the shard stops at its next engine-batch boundary
    exactly as it would on a ``threading.Event``.  :meth:`close` closes a
    worker's mapping; on the owner it also unlinks the segment.
    """

    __slots__ = ("_segment", "_owner", "_closed")

    def __init__(self, segment, owner: bool) -> None:
        self._segment = segment
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls) -> "CancelFlag":
        """A fresh, unset flag owned by this process (``OSError`` if the
        platform refuses the segment)."""
        if not shared_memory_available():
            raise OSError("shared_memory is unavailable; cannot create a flag")
        name = f"repro-cxl-{secrets.token_hex(6)}"
        segment = _shared_memory.SharedMemory(name=name, create=True, size=1)
        try:
            segment.buf[0] = 0
        except BaseException:
            segment.close()
            segment.unlink()
            raise
        _LIVE_BLOCKS[name] = segment
        return cls(segment, owner=True)

    @classmethod
    def open(cls, name: str) -> "CancelFlag":
        """Map an existing flag by name (the worker side)."""
        return cls(_shared_memory.SharedMemory(name=name), owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    def set(self) -> None:
        self._segment.buf[0] = 1

    def is_set(self) -> bool:
        return self._segment.buf[0] != 0

    def close(self) -> None:
        """Close the mapping, unlinking it on the owner (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._segment.close()
        if self._owner:
            _LIVE_BLOCKS.pop(self._segment.name, None)
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def share_segment_tracker() -> None:
    """Start this process's shared-memory resource tracker now.

    Processes forked afterwards inherit the running tracker, so the
    segments they attach are registered with the coordinator's tracker
    rather than a private one per worker — which would unlink the
    coordinator's live segments if that worker died.
    """
    if shared_memory_available():
        resource_tracker.ensure_running()
