"""Zero-copy shard handoff: join-key blocks over shared memory.

A shard's engine reads one attribute of a record: the exact operator
hashes its join key, the approximate one tokenises it into q-grams.  So
only the keys cross the process boundary; the records stay in the parent,
in the :class:`~repro.runtime.sharding.ShardPlan`, and the parent rebuilds
match events and output records from them (see
:mod:`repro.runtime.shard_result`).

* :class:`SideBlock` — one side's join keys, encoded **once** per plan
  exactly as the tuple store normalises them (``None`` → ``""``,
  otherwise ``str``): a contiguous UTF-8 ``payload`` plus an
  ``array('Q')`` offset table (one entry per row plus a terminator),
  both built in C (``b"".join``, :func:`itertools.accumulate`).  Keys
  encode and decode through ``surrogatepass``, so every ``str`` — a
  lone surrogate included — round-trips exactly.  Row
  ``r`` decodes to a one-column :class:`~repro.engine.tuples.Record`
  named by the join attribute, through
  :meth:`~repro.engine.tuples.Record.from_trusted`.
* :func:`publish_block` — copies a :class:`SideBlock` (plus every shard's
  row-index array, so replication stays *indices*, never copies) into a
  single :class:`multiprocessing.shared_memory.SharedMemory` segment and
  returns a :class:`PublishedBlock` whose :class:`BlockDescriptor` is the
  only thing a worker ever receives on the wire.
* :meth:`BlockDescriptor.attach` — maps the segment back in a worker and
  exposes the same :class:`SideBlock` interface over plain
  ``memoryview``\\ s: attaching copies nothing; keys are decoded lazily
  as the shard's join consumes them.

The pickle handoff ships the same keys as a list, so a worker sees one
input shape either way: one-column records of join keys.  A plan uses
pickle only when asked to, or when the platform lacks ``shared_memory``;
a run whose segment allocation fails falls back to it too.

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
from array import array
from itertools import accumulate, repeat
from typing import Dict, List, Sequence, Tuple

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
    "key_schema",
    "live_block_count",
    "live_block_names",
    "publish_block",
    "share_segment_tracker",
    "shared_memory_available",
]

#: The shard-handoff modes accepted by ``ShardPlan.build`` and everything
#: layered above it (``run_sharded``, the jobs builder, ``repro link``).
#: ``auto`` and ``shared-memory`` publish key blocks when the platform
#: has ``shared_memory`` and fall back to pickle otherwise; ``pickle``
#: never encodes.
HANDOFF_MODES = ("auto", "pickle", "shared-memory")

#: Set by tests to simulate a platform without ``shared_memory``.
_FORCE_UNAVAILABLE = False


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` can back a publish."""
    return _shared_memory is not None and not _FORCE_UNAVAILABLE


#: Key bytes are UTF-8 with lone surrogates passed through, the same
#: bytes the partitioners hash, so any ``str`` round-trips.
_ERRORS = "surrogatepass"


def key_schema(schema: Schema, attribute: str) -> Schema:
    """The one-column schema a worker reads ``schema``'s join keys under."""
    return Schema((attribute,), name=schema.name)


class SideBlock:
    """One side's join keys as a UTF-8 payload plus an offset table.

    ``payload``/``offsets`` may be the owning ``bytes``/``array`` objects
    (built by :meth:`encode`) or borrowed ``memoryview``\\ s over a
    shared-memory segment (built by :meth:`BlockDescriptor.attach`); the
    decode path is identical for both.
    """

    __slots__ = ("schema", "row_count", "payload", "offsets")

    def __init__(self, schema: Schema, row_count: int, payload, offsets) -> None:
        self.schema = schema
        self.row_count = row_count
        self.payload = payload
        self.offsets = offsets

    @property
    def payload_size(self) -> int:
        return len(self.payload)

    @classmethod
    def encode(cls, schema: Schema, keys: Sequence[str]) -> "SideBlock":
        """Encode the ``str`` ``keys`` under the one-column ``schema``."""
        encoded = list(map(str.encode, keys, repeat("utf-8"), repeat(_ERRORS)))
        offsets = array("Q", accumulate(map(len, encoded), initial=0))
        return cls(schema, len(encoded), b"".join(encoded), offsets)

    def record(self, row: int) -> Record:
        """Row ``row`` as a one-column :class:`Record` holding its key."""
        offsets = self.offsets
        key = str(self.payload[offsets[row] : offsets[row + 1]], "utf-8", _ERRORS)
        return Record.from_trusted(self.schema, (key,))

    def __repr__(self) -> str:
        return f"<SideBlock rows={self.row_count} payload={self.payload_size}B>"


class BlockDescriptor:
    """The picklable handle a worker receives instead of its shard's keys.

    Carries the shared-memory segment *name* plus the integers needed to
    re-derive the segment's region layout (see :func:`_region_layout`):
    the row count, payload size and the per-shard row-array extents.
    Everything heavy — key bytes, the offset table, the shard row-index
    arrays themselves — lives in the segment.  A descriptor pickles to a
    few hundred bytes regardless of how many rows the plan holds, which
    is what makes retry resubmission O(descriptor).
    """

    __slots__ = (
        "name",
        "schema_attributes",
        "schema_name",
        "row_count",
        "payload_size",
        "shard_extents",
    )

    def __init__(
        self,
        name: str,
        schema_attributes: Tuple[str, ...],
        schema_name: str,
        row_count: int,
        payload_size: int,
        shard_extents: Tuple[int, ...],
    ) -> None:
        self.name = name
        self.schema_attributes = schema_attributes
        self.schema_name = schema_name
        self.row_count = row_count
        self.payload_size = payload_size
        self.shard_extents = shard_extents

    # __slots__ classes need explicit pickle support.
    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

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
    row_count: int, payload_size: int, shard_extents: Sequence[int]
) -> Tuple[int, int, int]:
    """Byte offsets of the shard-row and payload regions, plus the total.

    Layout: ``[offsets 'Q'][shard rows 'Q'][payload]`` — the 8-byte
    regions first so the memoryview casts in :class:`AttachedBlock` are
    always aligned; the offsets region starts the segment.
    """
    rows_at = 8 * (row_count + 1)
    payload_at = rows_at + 8 * sum(shard_extents)
    # shared_memory rejects size=0; keep at least one byte.
    total = max(payload_at + payload_size, 1)
    return rows_at, payload_at, total


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
        rows_at, payload_at, _ = _region_layout(
            descriptor.row_count, descriptor.payload_size, descriptor.shard_extents
        )
        buf = segment.buf

        def region(start: int, stop: int) -> memoryview:
            view = buf[start:stop]
            self._views.append(view)
            return view

        offsets = region(0, rows_at).cast("Q")
        self._views.append(offsets)
        payload = region(payload_at, payload_at + descriptor.payload_size)
        schema = Schema(descriptor.schema_attributes, name=descriptor.schema_name)
        self.block = SideBlock(schema, descriptor.row_count, payload, offsets)
        rows_all = region(rows_at, payload_at).cast("Q")
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
    rows_at, payload_at, total = _region_layout(
        block.row_count, block.payload_size, extents
    )
    name = f"repro-blk-{secrets.token_hex(6)}"
    segment = _shared_memory.SharedMemory(name=name, create=True, size=total)
    try:
        buf = segment.buf
        buf[:rows_at] = block.offsets.tobytes()
        cursor = rows_at
        for rows in shard_rows:
            rows_bytes = array("Q", rows).tobytes()
            buf[cursor : cursor + len(rows_bytes)] = rows_bytes
            cursor += len(rows_bytes)
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
