"""Partitioned execution: split one logical join into N shard inputs.

A :class:`~repro.runtime.session.JoinSession` was built to be the unit of
parallelism — it owns its engine, bus, policy and trace and shares no
mutable state with other sessions.  This module supplies the *partition*
and *merge* halves of the partition → execute → merge pipeline on top of
that unit (the *execute* half — the serial/process backends — lives
in :mod:`repro.runtime.parallel`):

* :class:`Partitioner` — a deterministic record → shard assignment
  (single-shard via :meth:`~Partitioner.assign`, multi-shard replication
  via :meth:`~Partitioner.assign_many`); the two built-in ones are looked
  up by name in :data:`PARTITIONERS` (``"hash"``, ``"gram-prefix"``);
* :class:`ShardPlan` — materialises per-shard
  :class:`~repro.engine.streams.RecordStream` pairs from the two inputs
  (bulk split for in-memory streams, single-pass fan-out for lazy ones)
  and remembers each shard record's *origin* index so merged results can
  report global pair identities;
* :class:`ShardedJoinResult` — the mergeable aggregate over per-shard
  results, each a :class:`~repro.runtime.shard_result.ShardResult` of
  match columns: merged pairs (events rebuilt only on demand), merged
  :class:`~repro.joins.base.OperationCounters`, a shard-tagged
  step-offset-aware merged :class:`~repro.core.trace.ExecutionTrace`
  (:func:`repro.core.trace.merge_traces`), with the per-shard detail
  preserved for debugging.

Correctness model
-----------------
Partitioners come in two kinds, selected by :meth:`Partitioner.assign_many`:

*Disjoint* (``hash``): every record lands in exactly one shard, so a
pair can never be emitted twice and merged counter totals are plain
sums.  The ``hash`` partitioner co-partitions both sides by join-key
value, which makes every *value-equal* pair co-located: the sharded run
finds exactly the equi-matches the unsharded run finds, with
bit-identical merged counters when the run stays in the exact operator.
Approximate (cross-value) matches are found whenever the pair
co-partitions; a variant pair whose two spellings hash to different
shards is not discoverable by any disjoint partitioning — sharding trades
a sliver of approximate recall for parallelism, exactly like distributed
similarity joins without gram replication.

*Replicated* (``gram-prefix``): a record is routed to *every* shard
owning one of its prefix q-gram buckets.  Any pair the approximate
operator can match shares at least one prefix gram (the prefix-filter
bound, see :class:`PrefixGramPartitioner`), and the shard owning a
shared prefix gram holds *both* records in full — so every matchable
pair is co-located and generated as a candidate in at least one shard:
partitioning never separates a pair the operator could match.  Whether
the co-located candidate then *passes* depends on the match predicate.
Under ``verify_jaccard=True`` the predicate (Jaccard ≥ θ) is a symmetric
function of the pair, so the sharded match set equals the unsharded one
exactly — recall 1.0 at any shard count, unconditionally.  Under the
paper's default counter-only test the threshold ``⌈θ·g⌉`` is computed
from the *probing* record's gram count, and which record probes depends
on arrival interleave — which any sharding (hash included) changes — so
a borderline pair whose two gram counts straddle the threshold can flip
in either direction; real variant workloads sit far from that boundary
(pinned on fixtures by the equivalence tests), but the exactness
*guarantee* is the symmetric predicate's.  The price of replication is
repeated work (each record is indexed and probed once per owning shard)
and duplicate discoveries, which :class:`ShardedJoinResult` removes at
merge time (first-shard-wins, so serial runs stay bit-deterministic)
while keeping the raw totals visible.  See ARCHITECTURE.md ("Sharded
execution") for the full guarantee table.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.cost_model import CostModel
from repro.core.state_machine import JoinState
from repro.core.trace import ExecutionTrace, merge_traces
from repro.engine.streams import (
    InputLike,
    ListStream,
    RecordStream,
    as_stream,
)
from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinAttribute, JoinSide, MatchEvent, OperationCounters
from repro.joins.fastpath import GramInterner
from repro.runtime.failures import ShardFailure
from repro.runtime.handoff import (
    HANDOFF_MODES,
    BlockDescriptor,
    PublishedBlock,
    SideBlock,
    build_descriptor,
    key_schema,
    publish_block,
    shared_memory_available,
)
from repro.runtime.shard_result import ShardResult

#: Chunk size for splitting bulk-capable streams (one slice per chunk).
_BULK_SPLIT_BATCH = 8192


class Partitioner:
    """Deterministic record → shard assignment, shared by both join sides.

    Subclasses implement :meth:`assign` (one shard per record) and may
    additionally override :meth:`assign_many` to *replicate* a record
    into several shards.  Assignments must be pure functions of their
    arguments (no randomness, no hidden per-call state — memoisation of
    pure results is fine): the same record must land in the same shards
    on every run and in every process, which is what makes the ``serial``
    backend bit-deterministic and the backends interchangeable.
    """

    #: Name in :data:`PARTITIONERS` (empty for hand-built subclasses).
    name: str = ""
    #: Whether :meth:`assign_many` may return more than one shard.
    #: Replicating partitioners repeat work per replica and rely on the
    #: merge-time dedup of :class:`ShardedJoinResult`.
    replicates: bool = False

    def assign(
        self, side: JoinSide, ordinal: int, value: str, shard_count: int
    ) -> int:
        """Shard index in ``[0, shard_count)`` for one record.

        Parameters
        ----------
        side:
            The input the record was read from.
        ordinal:
            Position of the record in its side's arrival order (0-based).
        value:
            The record's join-attribute value (stringified, ``None`` →
            ``""`` — the same normalisation the join stores).
        shard_count:
            Total number of shards.
        """
        raise NotImplementedError

    def assign_many(
        self, side: JoinSide, ordinal: int, value: str, shard_count: int
    ) -> Tuple[int, ...]:
        """All shards the record belongs to (non-empty, each in range).

        The routing hook :class:`ShardPlan` actually calls.  Defaults to
        the single :meth:`assign` shard, so disjoint partitioners only
        implement ``assign``; replicating partitioners override this and
        return every owning shard (duplicate-free, deterministic order).
        """
        return (self.assign(side, ordinal, value, shard_count),)

    def prepare(
        self,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        shard_count: int,
    ) -> None:
        """Observe both sides' full join-key corpus before routing begins.

        :meth:`ShardPlan.build` collects both inputs first and calls this
        exactly once, before the first :meth:`assign_many`.  Partitioners
        whose assignment depends on *global* statistics (the
        ``gram-prefix`` partitioner ranks grams by corpus frequency)
        override it; the default is a no-op.  Whatever state ``prepare``
        derives must be a pure function of its arguments, preserving the
        determinism contract of :meth:`assign` — and it is per-plan state,
        so a partitioner instance must not be shared across plans over
        different inputs.
        """

    @classmethod
    def from_config(cls, config) -> "Partitioner":
        """Build an instance tuned to a :class:`~repro.runtime.config.RunConfig`.

        The default ignores the config; partitioners whose assignment
        depends on run parameters (``gram-prefix`` mirrors the engine's
        ``q``, gram padding and ``θ``) override this so
        :func:`~repro.runtime.parallel.run_sharded` can hand them the
        run's configuration.
        """
        return cls()

    def check_config(self, config) -> None:
        """Validate this instance against the run configuration.

        Called by :meth:`ShardPlan.build` (when given a config) and by
        :meth:`~repro.runtime.parallel.ParallelExecutor.run` before a
        plan executes.  The default accepts anything; config-sensitive
        partitioners raise when a hand-built instance disagrees with the
        run's parameters — a mismatch would silently void their
        correctness guarantees.
        """


# -- the two partitioners ---------------------------------------------------------------


def stable_value_shard(value: str, shard_count: int) -> int:
    """The stable CRC-32 shard of a join-key value.

    The one definition of value-hash co-partitioning, shared by
    :class:`HashPartitioner` and the gram-prefix partitioner's gram-free
    fallback — equal values land together across both, by construction.
    Uses CRC-32 rather than Python's ``hash`` so assignments are stable
    across processes and runs (``PYTHONHASHSEED`` does not leak into
    shard layouts).  Lone surrogates hash through ``surrogatepass``; every
    other string's bytes are its plain UTF-8.
    """
    return zlib.crc32(value.encode("utf-8", "surrogatepass")) % shard_count


class HashPartitioner(Partitioner):
    """Co-partition both sides by a stable hash of the join-key value.

    The default and the correctness-preserving choice for equi-match
    semantics: tuples with equal join-key values land in the same shard
    regardless of side, so an exact probe inside a shard scans exactly the
    bucket it would have scanned unsharded (see :func:`stable_value_shard`).
    """

    name = "hash"

    def assign(
        self, side: JoinSide, ordinal: int, value: str, shard_count: int
    ) -> int:
        return stable_value_shard(value, shard_count)


class PrefixGramPartitioner(Partitioner):
    """Replicate each record into every shard owning one of its *prefix* grams.

    The correctness-at-scale partitioner for *approximate* recall.  A
    record is tokenised into its distinct q-grams (via the fast-path
    :class:`~repro.joins.fastpath.GramInterner`, so repeated values are a
    cache hit) and routed to the owning shard of each of its
    ``p = g − ⌈θ·g⌉ + 1`` grams that come *first* in a global
    rarest-first order — the classic prefix-filter signature (Chaudhuri et
    al.'s SSJoin framing, the same signature scheme distributed similarity
    joins ship records by).  A gram's owning shard is its stable CRC-32
    modulo the shard count.

    Why recall is preserved: order all grams by corpus frequency
    (ascending, ties broken by gram string — any fixed total order works).
    A pair the approximate operator can match has gram overlap
    ``o ≥ ⌈θ·g⌉`` for *both* records' gram counts ``g``.  If two sets
    with ``|X| = g_x, |Y| = g_y`` share ``o ≥ max(req_x, req_y)``
    elements, their prefixes of lengths ``g_x − req_x + 1`` and
    ``g_y − req_y + 1`` must intersect: drop the prefix of X and you drop
    at most ``g_x − (g_x − req_x + 1) = req_x − 1 < o`` shared elements,
    so a shared gram survives into X's prefix; symmetrically for Y; and
    the *smallest* shared gram under the global order sits in both
    prefixes.  That shared prefix gram's owning shard holds both records
    *in full* — the in-shard probe sees the complete gram sets (prefixes
    restrict *routing*, never the gram sets the operator compares), so
    every matchable pair becomes a co-located candidate somewhere, at a
    replication factor bounded by the prefix length (≈ ``0.15·g + 1`` at
    θ = 0.85).  With a symmetric match predicate (``verify_jaccard=True``)
    that makes the sharded match set exactly the unsharded one; under the
    default probe-directional counter test the guarantee is the candidate
    co-location itself (see the module docstring's correctness model for
    the borderline-pair caveat, which applies to every partitioner).
    Values that produce no grams at all (and therefore can only
    equi-match) fall back to the ``hash`` assignment so equal gram-free
    values still co-partition.

    ``q``, ``padded`` and ``theta`` must mirror the engine's approximate
    operator — a larger θ than the engine's would shorten prefixes below
    what the overlap bound licenses.  :meth:`from_config` reads them from
    the run configuration, which is how the ``run_sharded`` /
    ``link_tables`` / CLI entry points construct this partitioner;
    :meth:`check_config` rejects mismatched hand-built instances.  The
    prefix computation rounds the required overlap *down* through a small
    epsilon before ``ceil`` so a floating-point wobble in ``θ·g`` can only
    lengthen a prefix, never shorten it.

    Corpus frequencies come from :meth:`prepare`, which
    :meth:`ShardPlan.build` feeds with both sides' key corpus before
    routing.  Outside a plan build (no :meth:`prepare` call) the
    partitioner replicates on *every* gram — full replication is always a
    safe over-approximation of the prefix.

    A pair sharing prefix grams owned by different shards is discovered
    more than once — :class:`ShardedJoinResult` dedupes those at merge
    time and reports both raw and deduplicated totals.
    """

    name = "gram-prefix"
    replicates = True

    def __init__(self, q: int = 3, padded: bool = True, theta: float = 0.85) -> None:
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        if not 0.0 < theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {theta}")
        self.q = q
        self.padded = padded
        self.theta = theta
        self._interner = GramInterner(q=q, padded=padded)
        # Gram id → CRC-32 of the gram string.  Shard-count-free, so one
        # partitioner instance can serve plans of different widths.
        self._gram_crc: List[int] = []
        #: Gram id → dense rank in the corpus rarest-first order, grams
        #: outside the corpus ranked last (``_unseen``); filled by
        #: :meth:`prepare` (per plan) and extended as grams are interned.
        self._rank: List[int] = []
        self._unseen = 0
        #: Key → owning shards at the prepared width: routing is a pure
        #: function of the key, so repeated keys route once.
        self._owners: Dict[str, Tuple[int, ...]] = {}
        self._owners_width = 0
        self._prepared = False

    @classmethod
    def from_config(cls, config) -> "PrefixGramPartitioner":
        if config is None:
            return cls()
        return cls(
            q=config.thresholds.q,
            padded=config.padded_qgrams,
            theta=config.thresholds.theta_sim,
        )

    def check_config(self, config) -> None:
        if config is None:
            return
        expected = (
            config.thresholds.q,
            config.padded_qgrams,
            config.thresholds.theta_sim,
        )
        if (self.q, self.padded, self.theta) != expected:
            raise ValueError(
                f"gram-prefix partitioner tokenises with (q={self.q}, "
                f"padded={self.padded}, theta={self.theta}) but the run "
                f"configuration uses (q={expected[0]}, padded={expected[1]}, "
                f"theta_sim={expected[2]}): a mismatch silently breaks the "
                f"full-recall guarantee — build the partitioner with "
                f"PrefixGramPartitioner.from_config(config) or pass it by "
                f"name"
            )

    def prepare(
        self,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        shard_count: int,
    ) -> None:
        """Rank every corpus gram rarest-first (ties by gram string)."""
        interner = self._interner
        frequency = Counter(
            chain.from_iterable(
                map(interner.intern_value, chain(left_keys, right_keys))
            )
        )
        # (frequency, gram) is unique per gram, so the tuples sort
        # without a key function into exactly the rarest-first order.
        ordered = sorted(
            zip(
                map(frequency.__getitem__, frequency),
                map(interner.gram, frequency),
                frequency,
            )
        )
        self._unseen = len(ordered)
        rank = [self._unseen] * len(interner)
        for position, (_, _, gram_id) in enumerate(ordered):
            rank[gram_id] = position
        self._rank = rank
        self._owners = {}
        self._owners_width = shard_count
        self._prepared = True

    def prefix_length(self, gram_count: int) -> int:
        """The signature length for a record with ``gram_count`` grams."""
        required = min(
            gram_count, max(1, math.ceil(self.theta * gram_count - 1e-12))
        )
        return gram_count - required + 1

    def assign(
        self, side: JoinSide, ordinal: int, value: str, shard_count: int
    ) -> int:
        """The first (lowest-numbered) owning shard of the record."""
        return self.assign_many(side, ordinal, value, shard_count)[0]

    def assign_many(
        self, side: JoinSide, ordinal: int, value: str, shard_count: int
    ) -> Tuple[int, ...]:
        memo = self._owners if shard_count == self._owners_width else None
        if memo is not None:
            owners = memo.get(value)
            if owners is not None:
                return owners
        gram_ids = self._interner.intern_value(value)
        if not gram_ids:
            # Gram-free values can only equi-match: hash co-partitioning
            # is exactly sufficient (and avoids pointless replication).
            owners = (stable_value_shard(value, shard_count),)
        else:
            self._cover_interned()
            if self._prepared:
                prefix = self.prefix_length(len(gram_ids))
                if prefix < len(gram_ids):
                    # Grams outside the prepared corpus cannot occur during
                    # a plan build; they rank last (stably) for direct callers.
                    gram_ids = sorted(gram_ids, key=self._rank.__getitem__)[:prefix]
            crc = self._gram_crc
            owners = tuple(sorted({crc[gram_id] % shard_count for gram_id in gram_ids}))
        if memo is not None:
            memo[value] = owners
        return owners

    def _cover_interned(self) -> None:
        """Extend the CRC and rank lists over every gram interned so far."""
        interned = len(self._interner)
        crc = self._gram_crc
        if len(crc) < interned:
            gram = self._interner.gram
            crc.extend(
                zlib.crc32(gram(gram_id).encode("utf-8", "surrogatepass"))
                for gram_id in range(len(crc), interned)
            )
        if len(self._rank) < interned:
            self._rank.extend([self._unseen] * (interned - len(self._rank)))


#: The partitioners by name — a closed table: ``hash`` for equi-match
#: co-partitioning, ``gram-prefix`` for full approximate recall.
PARTITIONERS: Dict[str, Type[Partitioner]] = {
    HashPartitioner.name: HashPartitioner,
    PrefixGramPartitioner.name: PrefixGramPartitioner,
}


def create_partitioner(name: str, config=None) -> Partitioner:
    """Instantiate the partitioner named ``name`` in :data:`PARTITIONERS`.

    ``config`` (an optional :class:`~repro.runtime.config.RunConfig`) is
    forwarded to :meth:`Partitioner.from_config`, so ``gram-prefix``
    mirrors the run's ``q``, gram padding and ``θ``; with ``None`` every
    partitioner falls back to its own defaults.
    """
    try:
        factory = PARTITIONERS[name]
    except KeyError:
        raise ValueError(
            f"unknown partitioner {name!r}; available: {available_partitioners()}"
        ) from None
    return factory.from_config(config)


def available_partitioners() -> Tuple[str, ...]:
    """Names of the partitioners, sorted."""
    return tuple(sorted(PARTITIONERS))


# -- shard plans ------------------------------------------------------------------------


class ShardInput:
    """One shard's slice of one side: its records and their origins.

    ``records`` holds the shard's records, one entry per origin
    (replication copies references, never records); ``origins[i]`` is the
    position of the shard's ``i``-th record in the original input's
    arrival order — the global ordinal merged results report.  In-process
    (serial) sessions stream these records, and the parent rebuilds
    events and output records from them whatever the backend; a worker
    process receives only the shard's join keys (see
    :mod:`repro.runtime.handoff`).
    """

    __slots__ = ("schema", "records", "origins", "name")

    def __init__(
        self,
        schema: Schema,
        records: Optional[List[Record]] = None,
        origins: Optional[List[int]] = None,
        name: str = "",
    ) -> None:
        self.schema = schema
        self.records = records if records is not None else []
        self.origins = origins if origins is not None else []
        self.name = name

    def stream(self) -> RecordStream:
        """A fresh stream over this shard input (streams are single-use).

        May be called any number of times: the record list is immutable,
        so every call replays the identical sequence.  This replayability
        is a *contract* — shard retry (:mod:`repro.runtime.failures`) and
        job resume re-run shards through it and rely on the re-run being
        bit-identical.
        """
        return ListStream(self.schema, self.records, name=self.name)

    def __len__(self) -> int:
        return len(self.records)


class ShardPlan:
    """The partition step: N per-shard (left, right) input pairs.

    Build one with :meth:`build`; hand it to
    :class:`~repro.runtime.parallel.ParallelExecutor`.  The plan owns the
    materialised shard records (not live streams), so one plan can be
    executed any number of times, its join keys shipped to worker
    processes on each run —
    :meth:`shard_streams` replays a shard's inputs identically on every
    call, the contract shard retry and :meth:`JobHandle.resume`-style
    partial re-execution are built on (see :meth:`ShardInput.stream`).

    Splitting honours the stream contract: inputs advertising
    ``supports_bulk_pull`` (tables, in-memory streams) are split through
    chunked bulk pulls; lazy sources (``IteratorStream``,
    ``GeneratorStream``) are fanned out in a single pass of
    ``next_record`` — each record is pulled exactly once and never ahead
    of need, so a partially consumed or expensive producer is drained
    without over-pull.

    Under a replicating partitioner (``gram-prefix``) one record may appear in
    several shard inputs; each copy records the same global origin, so
    merged results still report one identity per input record.  The
    stream is still read exactly once — replication copies references,
    it never re-pulls.  :meth:`replication_factors` quantifies the extra
    volume.
    """

    def __init__(
        self,
        attribute: JoinAttribute,
        partitioner: Partitioner,
        left_shards: List[ShardInput],
        right_shards: List[ShardInput],
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        left_input_size: Optional[int] = None,
        right_input_size: Optional[int] = None,
        handoff: str = "pickle",
        left_block: Optional[SideBlock] = None,
        right_block: Optional[SideBlock] = None,
    ) -> None:
        if len(left_shards) != len(right_shards):
            raise ValueError(
                f"left/right shard lists disagree: {len(left_shards)} vs "
                f"{len(right_shards)}"
            )
        self.attribute = attribute
        self.partitioner = partitioner
        self.left_shards = left_shards
        self.right_shards = right_shards
        #: Each side's join keys in arrival order (``left_keys[o]`` is the
        #: key of input record ``o``): what a pickle-handoff task slices
        #: by its shard's origins.
        self.left_keys = left_keys
        self.right_keys = right_keys
        #: The *resolved* handoff representation: ``"shared-memory"``
        #: exactly when the plan carries join-key blocks, else
        #: ``"pickle"`` (``"auto"`` never survives :meth:`build`).
        self.handoff = handoff
        #: The per-side join-key blocks (``None`` under pickle handoff).
        #: Plain process memory owned by the plan — shared memory
        #: segments are published per process-backend run, see
        #: :meth:`publish_blocks`.
        self.left_block = left_block
        self.right_block = right_block
        #: Records the original inputs produced (before any replication);
        #: inferred from the origin maps when not given explicitly.
        self.left_input_size = (
            left_input_size
            if left_input_size is not None
            else _distinct_origin_count(left_shards)
        )
        self.right_input_size = (
            right_input_size
            if right_input_size is not None
            else _distinct_origin_count(right_shards)
        )

    @classmethod
    def build(
        cls,
        left: InputLike,
        right: InputLike,
        attribute: Union[str, JoinAttribute],
        shard_count: int,
        partitioner: Union[str, Partitioner] = "hash",
        config=None,
        handoff: str = "auto",
    ) -> "ShardPlan":
        """Partition both inputs into ``shard_count`` co-numbered shards.

        Pass the run's :class:`~repro.runtime.config.RunConfig` as
        ``config`` whenever the plan will execute under one: a
        partitioner named by string is then built via
        :meth:`Partitioner.from_config`, keeping config-sensitive
        partitioners (``gram-prefix`` mirrors the engine's ``q`` / gram
        padding / ``θ``) in lock-step with the engine — the recall guarantee
        depends on it.  ``run_sharded`` does this automatically.

        ``handoff`` selects how a worker process receives its shard's
        join keys (see :mod:`repro.runtime.handoff`); every shard keeps
        its records in the plan either way.  ``"pickle"`` ships each
        shard's keys in its task; ``"auto"`` and ``"shared-memory"``
        encode each side's keys **once** into a
        :class:`~repro.runtime.handoff.SideBlock` that shards address by
        row index — replication becomes repeated indices.  Both block
        modes fall back to ``"pickle"`` when the platform lacks
        ``multiprocessing.shared_memory``;
        the plan's :attr:`handoff` records what was actually resolved,
        so callers that *require* zero-copy can check it.  The
        representation never changes results: both backends produce
        bit-identical matches, emission order and counters under either
        handoff.
        """
        if shard_count < 1:
            raise ValueError(f"shard_count must be at least 1, got {shard_count}")
        if handoff not in HANDOFF_MODES:
            raise ValueError(
                f"unknown handoff mode {handoff!r}; expected one of "
                f"{HANDOFF_MODES}"
            )
        if isinstance(attribute, str):
            attribute = JoinAttribute(attribute, attribute)
        if isinstance(partitioner, str):
            partitioner = create_partitioner(partitioner, config=config)
        else:
            # A hand-built instance must agree with the run parameters
            # (the gram-prefix partitioner's recall guarantee depends on it).
            partitioner.check_config(config)
        left_stream = as_stream(left)
        right_stream = as_stream(right)
        # Resolve both join-attribute positions before consuming either
        # stream: an unknown attribute must fail without a partial drain.
        left_position = left_stream.schema.position(attribute.left)
        right_position = right_stream.schema.position(attribute.right)
        # Collect-then-route (left fully, then right, preserving the
        # arrival order and the exactly-once pull contract) so that (a)
        # corpus-statistics partitioners can observe both sides before
        # the first routing decision and (b) each side's keys can be
        # encoded once into a block.
        left_records = _collect_records(left_stream)
        right_records = _collect_records(right_stream)
        left_keys = [
            join_key(record.value_at(left_position)) for record in left_records
        ]
        right_keys = [
            join_key(record.value_at(right_position)) for record in right_records
        ]
        partitioner.prepare(left_keys, right_keys, shard_count)
        left_rows = _route_side(
            JoinSide.LEFT, left_keys, shard_count, partitioner
        )
        right_rows = _route_side(
            JoinSide.RIGHT, right_keys, shard_count, partitioner
        )
        left_block = right_block = None
        if handoff != "pickle" and shared_memory_available():
            left_block = SideBlock.encode(
                key_schema(left_stream.schema, attribute.left), left_keys
            )
            right_block = SideBlock.encode(
                key_schema(right_stream.schema, attribute.right), right_keys
            )
        resolved = "shared-memory" if left_block is not None else "pickle"
        left_shards = _shard_inputs(left_stream, left_records, left_rows, shard_count)
        right_shards = _shard_inputs(
            right_stream, right_records, right_rows, shard_count
        )
        return cls(
            attribute,
            partitioner,
            left_shards,
            right_shards,
            left_keys,
            right_keys,
            left_input_size=len(left_records),
            right_input_size=len(right_records),
            handoff=resolved,
            left_block=left_block,
            right_block=right_block,
        )

    @property
    def shard_count(self) -> int:
        """Number of shards in the plan."""
        return len(self.left_shards)

    def shard_sizes(self) -> List[Tuple[int, int]]:
        """Per-shard ``(left records, right records)`` sizes."""
        return [
            (len(left), len(right))
            for left, right in zip(self.left_shards, self.right_shards)
        ]

    def replication_factors(self) -> Tuple[float, float]:
        """Per-side ``shard records / input records`` ratios.

        Exactly ``(1.0, 1.0)`` for disjoint partitioners; the ``gram-prefix``
        partitioner's extra work grows with these factors (empty inputs
        report ``1.0`` — nothing was replicated).
        """
        left_total = sum(len(shard) for shard in self.left_shards)
        right_total = sum(len(shard) for shard in self.right_shards)
        return (
            left_total / self.left_input_size if self.left_input_size else 1.0,
            right_total / self.right_input_size if self.right_input_size else 1.0,
        )

    @cached_property
    def output_schema(self) -> Schema:
        """Schema of the joined output records: both sides' full schemas,
        concatenated as a session over the shard streams would."""
        return self.left_shards[0].schema.concat(
            self.right_shards[0].schema, name="join"
        )

    def shard_streams(self, shard_id: int) -> Tuple[RecordStream, RecordStream]:
        """Fresh (left, right) streams over one shard's records (replayable
        at will) — what in-process readers (serial attempts, sharded
        streaming) run on, whatever the handoff."""
        return (
            self.left_shards[shard_id].stream(),
            self.right_shards[shard_id].stream(),
        )

    def publish_blocks(self) -> Optional["PublishedPlanBlocks"]:
        """Copy the side blocks into fresh shared-memory segments.

        Returns ``None`` for pickle-handoff plans.  The caller owns the
        pair and **must** :meth:`~PublishedPlanBlocks.release` it; resume
        and re-execution publish fresh ones from the plan's retained
        blocks.  Raises ``OSError`` when the platform refuses the
        allocation (callers fall back to pickle shipping).
        """
        if self.left_block is None or self.right_block is None:
            return None
        left = publish_block(
            self.left_block, [shard.origins for shard in self.left_shards]
        )
        try:
            right = publish_block(
                self.right_block, [shard.origins for shard in self.right_shards]
            )
        except BaseException:
            left.release()
            raise
        return PublishedPlanBlocks(left, right)

    def block_descriptors(
        self,
    ) -> Optional[Tuple[BlockDescriptor, BlockDescriptor]]:
        """The (left, right) descriptors a publish *would* ship, without
        allocating shared memory — the wire-payload measurement hook used
        by :func:`repro.runtime.parallel.estimate_shard_payload_bytes`.
        ``None`` for pickle-handoff plans."""
        if self.left_block is None or self.right_block is None:
            return None
        return (
            build_descriptor(
                self.left_block, [shard.origins for shard in self.left_shards]
            ),
            build_descriptor(
                self.right_block, [shard.origins for shard in self.right_shards]
            ),
        )

    def subset(self, shard_ids: Sequence[int]) -> "ShardPlan":
        """A plan containing only the given shards, renumbered ``0..m-1``.

        The partial-re-execution primitive behind ``JobHandle.resume()``:
        re-run just the failed/cancelled/unstarted shards of an earlier
        run, then map the sub-plan's shard ids back to the originals
        (position ``i`` of ``shard_ids`` ↔ sub-plan shard ``i``) before
        merging with the shards that already completed.  Shard inputs are
        shared by reference (materialised buffers, never copied) and so
        are the key blocks — a resumed zero-copy run re-encodes
        nothing, it only re-publishes the retained blocks — and the
        original input sizes are carried over so replication factors and
        recall accounting stay relative to the *full* inputs.
        """
        ids = list(shard_ids)
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids in subset: {ids}")
        for shard_id in ids:
            if not 0 <= shard_id < self.shard_count:
                raise ValueError(
                    f"shard id {shard_id} out of range for a "
                    f"{self.shard_count}-shard plan"
                )
        return ShardPlan(
            self.attribute,
            self.partitioner,
            [self.left_shards[shard_id] for shard_id in ids],
            [self.right_shards[shard_id] for shard_id in ids],
            self.left_keys,
            self.right_keys,
            left_input_size=self.left_input_size,
            right_input_size=self.right_input_size,
            handoff=self.handoff,
            left_block=self.left_block,
            right_block=self.right_block,
        )

    def __repr__(self) -> str:
        return (
            f"<ShardPlan {self.partitioner.name or type(self.partitioner).__name__} "
            f"shards={self.shard_count} handoff={self.handoff} "
            f"sizes={self.shard_sizes()}>"
        )


class PublishedPlanBlocks:
    """Both sides' shared-memory segments for one process-backend run."""

    def __init__(self, left: PublishedBlock, right: PublishedBlock) -> None:
        self.left = left
        self.right = right

    @property
    def descriptors(self) -> Tuple[BlockDescriptor, BlockDescriptor]:
        return (self.left.descriptor, self.right.descriptor)

    def release(self) -> None:
        """Close and unlink both segments (idempotent)."""
        self.left.release()
        self.right.release()


def _distinct_origin_count(shards: Sequence[ShardInput]) -> int:
    """Number of distinct input records behind a (possibly replicated) split."""
    return len({origin for shard in shards for origin in shard.origins})


def join_key(value) -> str:
    """Same normalisation the join's tuple store applies (None → "")."""
    return "" if value is None else str(value)


def _collect_records(stream: RecordStream) -> List[Record]:
    """Drain a stream into a list, honouring the pull contract.

    Bulk-capable streams are drained through chunked bulk pulls; lazy or
    live sources are pulled one record at a time — each record is pulled
    exactly once and never ahead of need.
    """
    records: List[Record] = []
    if stream.supports_bulk_pull:
        while True:
            batch = stream.next_records(_BULK_SPLIT_BATCH)
            if not batch:
                break
            records.extend(batch)
    else:
        while True:
            record = stream.next_record()
            if record is None:
                break
            records.append(record)
    return records


def _route_side(
    side: JoinSide,
    keys: Sequence[str],
    shard_count: int,
    partitioner: Partitioner,
) -> List[List[int]]:
    """Route one side's records (by join key) to per-shard row lists.

    Returns, per shard, the arrival-order row indices assigned to it.  A
    record's index is appended to every shard its partitioner names
    (:meth:`Partitioner.assign_many`) — replication repeats the index,
    never the record.
    """
    rows: List[List[int]] = [[] for _ in range(shard_count)]
    assign_many = partitioner.assign_many
    for ordinal, key in enumerate(keys):
        targets = assign_many(side, ordinal, key, shard_count)
        if not targets:
            raise ValueError(
                f"partitioner {partitioner.name or type(partitioner).__name__!r} "
                f"assigned no shard to {side.value} record {ordinal}"
            )
        if len(targets) > 1 and len(set(targets)) != len(targets):
            # The one contract violation that would fail *silently*: a
            # duplicated target stores the record twice in one shard and
            # double-counts its pairs straight through the dedup.
            raise ValueError(
                f"partitioner {partitioner.name or type(partitioner).__name__!r} "
                f"assigned {side.value} record {ordinal} to duplicate shards "
                f"{tuple(targets)}"
            )
        for shard_index in targets:
            if not 0 <= shard_index < shard_count:
                raise ValueError(
                    f"partitioner "
                    f"{partitioner.name or type(partitioner).__name__!r} "
                    f"assigned {side.value} record {ordinal} to shard "
                    f"{shard_index}, outside [0, {shard_count})"
                )
            rows[shard_index].append(ordinal)
    return rows


def _shard_inputs(
    stream: RecordStream,
    records: List[Record],
    rows: List[List[int]],
    shard_count: int,
) -> List[ShardInput]:
    """Materialise one side's :class:`ShardInput` list from its routing."""
    return [
        ShardInput(
            schema=stream.schema,
            records=list(map(records.__getitem__, shard_rows)),
            origins=shard_rows,
            name=f"{stream.name}[shard {shard_id}/{shard_count}]",
        )
        for shard_id, shard_rows in enumerate(rows)
    ]


# -- mergeable results ------------------------------------------------------------------


def merge_counters(counters: Sequence[OperationCounters]) -> OperationCounters:
    """Sum a sequence of counter objects (empty sequence → zero counters)."""
    merged = OperationCounters()
    for item in counters:
        merged = merged.merge(item)
    return merged


class FirstShardWins:
    """The one definition of the cross-shard dedup rule.

    The first (lowest-id in merge order, first-to-discover in streaming
    order) shard to produce a global pair *owns* it and contributes all
    its events for that pair; later shards' rediscoveries are dropped.
    Shared by :attr:`ShardedJoinResult._deduped` (merge time), the jobs
    layer's incremental sharded streaming and the server's match feed —
    one rule, no drift.
    """

    __slots__ = ("_owner",)

    def __init__(self) -> None:
        self._owner: Dict[Tuple[int, int], int] = {}

    def owns(self, pair: Tuple[int, int], shard_id: int) -> bool:
        """Whether ``shard_id`` owns ``pair`` (claiming it if unclaimed)."""
        return self._owner.setdefault(pair, shard_id) == shard_id

    def owned(
        self, pairs: Sequence[Tuple[int, int]], shard_id: int
    ) -> Optional[List[int]]:
        """Positions of the ``pairs`` that ``shard_id`` owns (claiming them).

        ``None`` when it owns every one — the common, disjoint case — so
        callers can keep a shard's columns whole without copying them.
        """
        claim = self._owner.setdefault
        kept = [
            index
            for index, pair in enumerate(pairs)
            if claim(pair, shard_id) == shard_id
        ]
        return None if len(kept) == len(pairs) else kept


@dataclass
class ShardOutcome:
    """One shard's result as match columns, bound to the plan that ran it.

    ``result`` is a :class:`~repro.runtime.shard_result.ShardResult`; the
    origin maps translate its shard-local ordinals into global input
    positions.  Build one with :meth:`of`, which also binds the result to
    the plan's shard inputs so its ``matches`` can be rebuilt on demand.
    A decoded outcome (:func:`repro.jobs.serialization.decode_shard_outcome`)
    carries no origins until it is bound the same way.
    """

    shard_id: int
    result: ShardResult
    #: Shard-local ordinal → original input index, per side.
    left_origins: Sequence[int] = ()
    right_origins: Sequence[int] = ()
    #: Wall-clock seconds the shard session took (as measured by its
    #: backend worker; includes session construction).
    wall_seconds: float = 0.0

    @classmethod
    def of(
        cls,
        plan: "ShardPlan",
        shard_id: int,
        result: ShardResult,
        wall_seconds: float = 0.0,
    ) -> "ShardOutcome":
        """The outcome of ``plan``'s shard ``shard_id``, bound to its inputs."""
        left_input = plan.left_shards[shard_id]
        right_input = plan.right_shards[shard_id]
        result.bind(left_input, right_input, plan.attribute, plan.output_schema)
        return cls(
            shard_id=shard_id,
            result=result,
            left_origins=left_input.origins,
            right_origins=right_input.origins,
            wall_seconds=wall_seconds,
        )

    def fits(self, plan: "ShardPlan") -> bool:
        """Whether this (decoded) outcome can belong to ``plan``.

        The shard id must exist and every ordinal must fall inside that
        shard's inputs — what a job store checks before it binds an
        outcome read back from disk.
        """
        return 0 <= self.shard_id < plan.shard_count and self.result.fits(
            len(plan.left_shards[self.shard_id]),
            len(plan.right_shards[self.shard_id]),
        )

    def matched_pairs(self) -> List[Tuple[int, int]]:
        """Global ``(left index, right index)`` pairs of this shard.

        The result's ordinals are shard-local arrival positions; the
        origin maps recorded by the :class:`ShardPlan` translate them
        back to positions in the original inputs, so pairs are
        comparable with an unsharded run.
        """
        left_origins = self.left_origins
        right_origins = self.right_origins
        return [
            (left_origins[left], right_origins[right])
            for left, right in zip(self.result.left, self.result.right)
        ]


@dataclass
class ShardedJoinResult:
    """Everything produced by one sharded join run.

    Mirrors the :class:`~repro.runtime.session.AdaptiveJoinResult` surface
    (matches / counters / trace / result size / weighted cost) so callers
    can consume either interchangeably, while keeping the per-shard
    results around (``shards``) for debugging and skew analysis.  All
    merged views are deterministic: shards are always combined in shard-id
    order, regardless of the order the backend finished them in.  The
    merges are computed once and cached — the result is immutable.

    Replicating partitioners (``gram-prefix``) can discover the same global pair
    in several shards.  The merged match views (:attr:`matches`,
    :meth:`matched_pairs`, :attr:`result_size`, :meth:`output_records`)
    are therefore *deduplicated*: for each global pair only the events of
    the first (lowest-id) shard that found it are kept — a stable rule,
    so the serial backend stays bit-deterministic — while
    :attr:`raw_result_size` / :attr:`duplicate_match_count` keep the
    replication overhead visible.  Under disjoint partitioners the dedup
    is a no-op and every view equals its pre-dedup reading.
    """

    shards: Tuple[ShardOutcome, ...]
    backend: str
    partitioner: str
    #: Original input record counts (before replication), carried over
    #: from the plan by :class:`~repro.runtime.parallel.ParallelExecutor`;
    #: ``None`` (hand-built results) falls back to deriving them from the
    #: origin maps.
    left_input_size: Optional[int] = None
    right_input_size: Optional[int] = None
    #: Whether a cancel token stopped the run before every shard
    #: completed: ``shards`` then holds only the shards that ran (the
    #: last of which may itself carry a partial, ``cancelled`` result).
    cancelled: bool = False
    #: Shards dropped by a ``degrade`` failure policy, one
    #: :class:`~repro.runtime.failures.ShardFailure` record each (shard
    #: id, attempts, error, input records lost) — the merged views below
    #: exclude their contributions, and :meth:`estimated_recall` /
    #: :meth:`coverage` quantify what was lost.  Empty on any
    #: non-degraded run.
    failed_shards: Tuple[ShardFailure, ...] = ()
    #: The resolved shard-handoff representation the plan executed under
    #: (``"pickle"`` or ``"shared-memory"``, see
    #: :mod:`repro.runtime.handoff`) — reporting only, the results are
    #: bit-identical either way.
    handoff: str = "pickle"

    def __post_init__(self) -> None:
        self.shards = tuple(
            sorted(self.shards, key=lambda outcome: outcome.shard_id)
        )
        self.failed_shards = tuple(
            sorted(self.failed_shards, key=lambda failure: failure.shard_id)
        )

    # -- merged views ----------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        """Number of shards that executed."""
        return len(self.shards)

    @cached_property
    def _deduped(
        self,
    ) -> Tuple[Tuple[Optional[List[int]], ...], Tuple[Tuple[int, int], ...]]:
        """(kept match positions per shard, global pairs), duplicates removed.

        One pass over the match columns in shard-id order: the first
        shard to discover a global pair owns it (:class:`FirstShardWins`)
        and contributes *all* its matches for that pair (so a session
        configured with ``deduplicate=False`` keeps its intra-shard
        repeats); later shards' rediscoveries are dropped.  A shard's
        entry is ``None`` when it keeps every match.
        """
        owner = FirstShardWins()
        kept: List[Optional[List[int]]] = []
        pairs: List[Tuple[int, int]] = []
        for outcome in self.shards:
            shard_pairs = outcome.matched_pairs()
            positions = owner.owned(shard_pairs, outcome.shard_id)
            kept.append(positions)
            if positions is None:
                pairs.extend(shard_pairs)
            else:
                pairs.extend(shard_pairs[index] for index in positions)
        return tuple(kept), tuple(pairs)

    @cached_property
    def matches(self) -> Tuple[MatchEvent, ...]:
        """Deduplicated matched pairs: shard-id order, emission order within.

        Events carry *shard-local* tuple ordinals; use
        :meth:`matched_pairs` for globally comparable pair identities.
        Rebuilt from the shards' match columns on first access (see
        :class:`~repro.runtime.shard_result.ShardResult`).
        """
        events: List[MatchEvent] = []
        for outcome, positions in zip(self.shards, self._deduped[0]):
            shard_events = outcome.result.matches
            if positions is None:
                events.extend(shard_events)
            else:
                events.extend(shard_events[index] for index in positions)
        return tuple(events)

    @property
    def result_size(self) -> int:
        """Number of matched pairs after cross-shard dedup (``r_abs``)."""
        return len(self._deduped[1])

    @property
    def raw_result_size(self) -> int:
        """Matched pairs summed over shards, duplicates included.

        Equal to :attr:`result_size` under disjoint partitioners; the gap
        is the replication overhead of the ``gram-prefix`` partitioner.
        """
        return sum(outcome.result.result_size for outcome in self.shards)

    @property
    def duplicate_match_count(self) -> int:
        """Match events dropped by the cross-shard dedup."""
        return self.raw_result_size - self.result_size

    @cached_property
    def counters(self) -> OperationCounters:
        """Merged elementary-operation counters (plain sums over shards).

        These count the work *actually performed*: under a replicating
        partitioner every replica's grams, probes and emissions are
        included (``matches_emitted`` counts raw emissions, duplicates
        and all).  Use :attr:`deduped_counters` for totals whose match
        emissions are collapsed to unique global pairs.
        """
        return merge_counters(
            [outcome.result.counters for outcome in self.shards]
        )

    @cached_property
    def deduped_counters(self) -> OperationCounters:
        """:attr:`counters` with ``matches_emitted`` collapsed to unique pairs.

        All other fields are left at their raw sums — the scans, probes
        and verifications genuinely happened once per replica; only the
        emission count has a meaningful deduplicated reading.
        """
        merged = self.counters.merge(OperationCounters())
        merged.matches_emitted = self.result_size
        return merged

    @cached_property
    def trace(self) -> ExecutionTrace:
        """Shard-tagged, step-offset-aware merged trace (see :func:`merge_traces`)."""
        return merge_traces(
            [outcome.result.trace for outcome in self.shards],
            shard_ids=[outcome.shard_id for outcome in self.shards],
        )

    @property
    def output_schema(self) -> Schema:
        """Schema of the joined output records (the plan's, bound to every
        shard result by :meth:`ShardOutcome.of`)."""
        if not self.shards:
            raise ValueError(
                "no shard completed (the run was cancelled before any shard "
                "ran), so there is no output schema to report"
            )
        return self.shards[0].result.output_schema

    @property
    def final_states(self) -> Dict[int, JoinState]:
        """Final processor state per shard (shards adapt independently)."""
        return {
            outcome.shard_id: outcome.result.final_state
            for outcome in self.shards
        }

    def matched_pairs(self) -> List[Tuple[int, int]]:
        """Global (left index, right index) pairs, comparable with unsharded runs.

        Deduplicated (first-shard-wins) like every merged match view.
        """
        return list(self._deduped[1])

    def raw_matched_pairs(self) -> List[Tuple[int, int]]:
        """Global pairs *before* dedup — one entry per shard discovery."""
        pairs: List[Tuple[int, int]] = []
        for outcome in self.shards:
            pairs.extend(outcome.matched_pairs())
        return pairs

    def pair_set(self) -> frozenset:
        """The merged match *set* (global pair identities, order-free)."""
        return frozenset(self._deduped[1])

    @cached_property
    def _replication_factors(self) -> Tuple[float, float]:
        left_total = sum(len(outcome.left_origins) for outcome in self.shards)
        right_total = sum(len(outcome.right_origins) for outcome in self.shards)
        left_inputs = self.left_input_size
        if left_inputs is None:
            left_inputs = len(
                {origin for outcome in self.shards for origin in outcome.left_origins}
            )
        right_inputs = self.right_input_size
        if right_inputs is None:
            right_inputs = len(
                {origin for outcome in self.shards for origin in outcome.right_origins}
            )
        return (
            left_total / left_inputs if left_inputs else 1.0,
            right_total / right_inputs if right_inputs else 1.0,
        )

    def replication_factors(self) -> Tuple[float, float]:
        """Per-side ``shard records / input records`` (1.0 when disjoint)."""
        return self._replication_factors

    def output_records(self) -> List[Record]:
        """Materialise the joined output records, in deduplicated match order."""
        if not self.matches:
            return []
        schema = self.output_schema
        return [event.output_record(schema) for event in self.matches]

    def weighted_cost(self, cost_model: Optional[CostModel] = None) -> float:
        """``c_abs`` summed over shards (weights apply per-state, so sums are exact)."""
        model = cost_model or CostModel()
        return sum(
            model.absolute_cost(outcome.result.trace) for outcome in self.shards
        )

    def per_shard_summary(self) -> List[Dict[str, object]]:
        """One flat row per shard for reports: sizes, matches, state, timing."""
        return [
            {
                "shard": outcome.shard_id,
                "left_records": len(outcome.left_origins),
                "right_records": len(outcome.right_origins),
                "matches": outcome.result.result_size,
                "final_state": outcome.result.final_state.label,
                "total_steps": outcome.result.trace.total_steps,
                "wall_seconds": round(outcome.wall_seconds, 4),
            }
            for outcome in self.shards
        ]

    def describe_json(self, policy: Optional[str] = None) -> Dict[str, object]:
        """The result's statistics as one stable JSON-ready mapping.

        The single wire format every consumer shares: ``JobHandle``
        builds its ``LinkageResult.statistics`` from it, the CLI report
        prints it, and the HTTP server returns it verbatim — so the keys
        here are a compatibility surface, not an implementation detail.
        ``policy`` (the run's switch-policy name) is caller-supplied
        because the merged result does not record it.  Conditional keys
        appear only when meaningful: ``trace`` needs at least one shard,
        ``cancelled`` only on interrupted runs, and the degraded-run
        block (``degraded`` / ``failed_shards`` / ``estimated_recall`` /
        ``coverage``) only when a degrade policy dropped shards — absence
        is the happy-path signal.
        """
        statistics: Dict[str, object] = {
            "result_size": self.result_size,
            "raw_result_size": self.raw_result_size,
            "duplicate_matches": self.duplicate_match_count,
            "replication_factors": self.replication_factors(),
            "policy": policy,
            "shards": self.shard_count,
            "backend": self.backend,
            "partitioner": self.partitioner,
            "handoff": self.handoff,
            "final_states": {
                shard: state.label for shard, state in self.final_states.items()
            },
            "per_shard": self.per_shard_summary(),
        }
        if self.shards:
            statistics["trace"] = self.trace.summary()
        if self.cancelled:
            statistics["cancelled"] = True
        if self.degraded:
            # A degraded run must never look like a complete one: the
            # dropped shards, the recall estimate and the per-side
            # coverage ride the statistics every consumer reads.
            statistics["degraded"] = True
            statistics["failed_shards"] = self.failed_shard_summary()
            statistics["estimated_recall"] = self.estimated_recall()
            statistics["coverage"] = self.coverage()
        return statistics

    # -- degraded-run accounting -----------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether a degrade policy dropped shards from this result.

        A degraded result is *honest but partial*: every merged view
        excludes the dropped shards' matches, and the loss is quantified
        by :attr:`failed_shards`, :meth:`coverage` and
        :meth:`estimated_recall`.
        """
        return bool(self.failed_shards)

    def coverage(self) -> Tuple[float, float]:
        """Per-side fraction of shard records that reached a completed shard.

        ``(1.0, 1.0)`` on non-degraded runs; computed over shard records
        (replicas included), so under a replicating partitioner it
        measures the fraction of *assigned work* that completed.
        """
        left_done = sum(len(outcome.left_origins) for outcome in self.shards)
        right_done = sum(len(outcome.right_origins) for outcome in self.shards)
        left_lost = sum(failure.left_records for failure in self.failed_shards)
        right_lost = sum(failure.right_records for failure in self.failed_shards)
        left_total = left_done + left_lost
        right_total = right_done + right_lost
        return (
            left_done / left_total if left_total else 1.0,
            right_done / right_total if right_total else 1.0,
        )

    def estimated_recall(self) -> float:
        """Estimated fraction of the full run's matches this result holds.

        Matches a shard can find scale with its candidate-pair volume
        ``l_k · r_k`` (each shard joins its left records against its
        right records), so the estimate is the completed shards' share of
        it::

            Σ_completed (l_k · r_k) / Σ_all (l_k · r_k)

        ``1.0`` on non-degraded runs.  An *estimate*: the true loss
        depends on where the matching pairs actually lived — the point
        is that a degraded result always discloses an expected loss
        rather than silently posing as complete.
        """
        done = sum(
            len(outcome.left_origins) * len(outcome.right_origins)
            for outcome in self.shards
        )
        lost = sum(
            failure.left_records * failure.right_records
            for failure in self.failed_shards
        )
        total = done + lost
        return done / total if total else 1.0

    def failed_shard_summary(self) -> List[Dict[str, object]]:
        """One flat row per dropped shard (the CLI / statistics feed)."""
        return [
            {
                "shard": failure.shard_id,
                "attempts": failure.attempts,
                "error_type": failure.error_type,
                "error": failure.message,
                "timed_out": failure.timed_out,
                "left_records": failure.left_records,
                "right_records": failure.right_records,
            }
            for failure in self.failed_shards
        ]
