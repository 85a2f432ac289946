"""Unit tests for the shared-memory columnar handoff layer.

What is pinned here (ISSUE 8 / ARCHITECTURE.md "Shard handoff"):

- **Bit-exact encode/decode** — every encodable Python value (``None``,
  ``bool``, arbitrary-precision ``int``, ``float`` including the IEEE
  edge cases, ``str`` including astral unicode) round-trips through the
  columnar block with its exact type and value, so block-decoded
  :class:`Record` objects are indistinguishable from the originals.
- **Clean fallback** — any value outside the encodable set (objects,
  containers, ``int``/``str`` subclasses, lone surrogates) makes
  ``SideBlock.encode`` return ``None``, and a plan built over such
  records resolves to the pickle handoff; ditto when ``shared_memory``
  itself is unavailable.
- **O(descriptor) tasks** — a :class:`BlockDescriptor` pickles to a few
  hundred bytes independent of the row count, and the process backend's
  per-shard task payload under the shared-memory handoff is bounded by
  the descriptor size on *every* attempt (the descriptor-only retry
  regression test).
- **Segment lifecycle** — publish/attach/release round-trips the data,
  the live-block registry observes every segment, release is idempotent.
- **One task factory** — ``_shard_task`` ships descriptors on both sides
  or each shard's own records, a retry differs only in its attempt, and
  the worker runs either kind to the same shard result.
- **Prefix-gram partitioning** — the ``gram-prefix`` partitioner
  replicates strictly less than full gram replication, degrades to it
  when unprepared, and refuses configs whose θ disagrees.
"""

import math
import pickle
import zlib

import pytest

from repro.core.state_machine import JoinState
from repro.core.thresholds import Thresholds
from repro.engine.table import Table
from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinSide
from repro.joins.fastpath import distinct_qgrams
from repro.runtime import handoff as handoff_module
from repro.runtime.config import RunConfig
from repro.runtime.handoff import (
    BlockDescriptor,
    SideBlock,
    build_descriptor,
    live_block_count,
    live_block_names,
    publish_block,
    shared_memory_available,
)
from repro.runtime.parallel import (
    ShardInputPayload,
    _run_shard_task,
    _shard_task,
    estimate_shard_payload_bytes,
    run_sharded,
)
from repro.runtime.session import JoinSession
from repro.runtime.sharding import (
    PrefixGramPartitioner,
    ShardPlan,
)

SCHEMA = Schema(["row_id", "value"], name="handoff_fixture")


def _records(values):
    return [
        Record(SCHEMA, {"row_id": index, "value": value})
        for index, value in enumerate(values)
    ]


def _table(values, name="left"):
    return Table.from_rows(
        Schema(["row_id", "location"], name=name),
        list(enumerate(values)),
        name=name,
    )


class TestColumnarRoundTrip:
    EDGE_VALUES = [
        None,
        True,
        False,
        0,
        -1,
        10**30,
        -(10**30),
        0.0,
        -0.0,
        1.5,
        float("inf"),
        float("-inf"),
        float("nan"),
        "",
        "plain ascii",
        "héllo wörld",
        "日本語のテキスト",
        "astral \U0001f600 plane",
        "x" * 5000,
    ]

    def test_every_edge_value_round_trips_bit_exact(self):
        records = _records(self.EDGE_VALUES)
        block = SideBlock.encode(SCHEMA, records, stream_name="edges")
        assert block is not None
        assert block.row_count == len(records)
        for row, original in enumerate(records):
            decoded = block.record(row)
            assert decoded.schema is SCHEMA
            for col in range(len(SCHEMA)):
                want, got = original.value_at(col), decoded.value_at(col)
                # Exact type, not just equality: True != 1 here, and the
                # float edge cases compare by bit pattern.
                assert type(want) is type(got)
                if isinstance(want, float):
                    assert math.copysign(1.0, want) == math.copysign(1.0, got)
                    assert (want == got) or (
                        math.isnan(want) and math.isnan(got)
                    )
                else:
                    assert want == got

    def test_decoded_records_equal_and_hash_like_originals(self):
        records = _records(["a", "bb", None, 42])
        block = SideBlock.encode(SCHEMA, records)
        for row, original in enumerate(records):
            decoded = block.record(row)
            assert decoded == original
            assert hash(decoded) == hash(original)

    def test_records_batch_supports_repeated_rows(self):
        """Gram replication = repeated indices into the same block."""
        records = _records(["x", "y"])
        block = SideBlock.encode(SCHEMA, records)
        decoded = block.records([1, 0, 1, 1])
        assert [r["value"] for r in decoded] == ["y", "x", "y", "y"]

    def test_empty_side_encodes(self):
        block = SideBlock.encode(SCHEMA, [])
        assert block is not None and block.row_count == 0


class TestEncodeFallback:
    @pytest.mark.parametrize(
        "value",
        [
            object(),
            (1, 2),
            [1],
            {"a": 1},
            b"bytes",
            type("FancyInt", (int,), {})(3),
            type("FancyStr", (str,), {})("s"),
        ],
        ids=["object", "tuple", "list", "dict", "bytes", "int-subclass",
             "str-subclass"],
    )
    def test_unencodable_value_returns_none(self, value):
        assert SideBlock.encode(SCHEMA, _records(["ok", value])) is None

    def test_lone_surrogate_returns_none(self):
        assert SideBlock.encode(SCHEMA, _records(["bad \ud800"])) is None

    def test_plan_falls_back_to_pickle_on_unencodable_records(self):
        left = _table(["GENOVA", "MILANO"])
        schema = Schema(["row_id", "location"], name="odd")
        right = Table(
            schema,
            [Record(schema, {"row_id": 0, "location": "GENOVA"}),
             Record(schema, {"row_id": 1, "location": "MILANO"})],
            name="right",
        )
        # Smuggle an unencodable value into a non-join column.
        right = Table(
            schema,
            list(right.records)
            + [Record(schema, {"row_id": (2, 2), "location": "ROMA"})],
            name="right",
        )
        plan = ShardPlan.build(left, right, "location", 2,
                               handoff="shared-memory")
        assert plan.handoff == "pickle"
        assert plan.left_block is None and plan.right_block is None

    def test_plan_falls_back_when_shared_memory_unavailable(self, monkeypatch):
        monkeypatch.setattr(handoff_module, "_FORCE_UNAVAILABLE", True)
        assert not shared_memory_available()
        plan = ShardPlan.build(
            _table(["a"]), _table(["a"], "right"), "location", 2,
            handoff="shared-memory",
        )
        assert plan.handoff == "pickle"
        config = RunConfig.from_thresholds(
            Thresholds(delta_adapt=5, window_size=5),
            policy="fixed",
            initial_state=JoinState.LEX_REX,
        )
        result = run_sharded(
            _table(["GENOVA", "MILANO"]),
            _table(["GENOVA", "TORINO"], "right"),
            "location",
            config,
            shards=2,
            handoff="auto",
        )
        assert result.handoff == "pickle"

    def test_explicit_pickle_mode_never_encodes(self):
        plan = ShardPlan.build(
            _table(["a", "b"]), _table(["a"], "right"), "location", 2,
            handoff="pickle",
        )
        assert plan.handoff == "pickle" and plan.left_block is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="handoff"):
            ShardPlan.build(
                _table(["a"]), _table(["a"], "right"), "location", 2,
                handoff="zero-copy",
            )


class TestDescriptorAndPayloadSize:
    def _plan(self, rows, handoff="shared-memory"):
        values = [f"location {i:06d} with a long-ish tail" for i in range(rows)]
        return ShardPlan.build(
            _table(values), _table(values, "right"), "location", 4,
            handoff=handoff,
        )

    def test_descriptor_bytes_independent_of_row_count(self):
        small = self._plan(10).block_descriptors()[0]
        large = self._plan(2000).block_descriptors()[0]
        assert len(pickle.dumps(large)) < 512
        # Row count only changes a few embedded integers' digit counts.
        assert abs(len(pickle.dumps(large)) - len(pickle.dumps(small))) < 32

    def test_descriptor_survives_pickle(self):
        descriptor = self._plan(10).block_descriptors()[0]
        clone = pickle.loads(pickle.dumps(descriptor))
        assert isinstance(clone, BlockDescriptor)
        assert clone.name == descriptor.name
        assert clone.row_count == descriptor.row_count
        assert clone.shard_extents == descriptor.shard_extents

    @pytest.mark.parametrize("attempt", [1, 2, 3])
    def test_block_task_payload_is_o_descriptor_on_every_attempt(self, attempt):
        """The descriptor-only-retry regression: a shared-memory task
        pickles to a bounded few hundred bytes no matter the attempt,
        while the pickle task grows with the record payload."""
        shm_plan = self._plan(2000)
        pickle_plan = self._plan(2000, handoff="pickle")
        assert shm_plan.handoff == "shared-memory"
        shm_sizes = estimate_shard_payload_bytes(shm_plan, attempt=attempt)
        pickle_sizes = estimate_shard_payload_bytes(
            pickle_plan, attempt=attempt
        )
        assert len(shm_sizes) == len(pickle_sizes) == 4
        for size in shm_sizes:
            assert size < 4096
        for shm, pickled in zip(shm_sizes, pickle_sizes):
            assert pickled > 10 * shm

    def test_retry_attempt_does_not_grow_the_block_task(self):
        plan = self._plan(600)
        first = estimate_shard_payload_bytes(plan, attempt=1)
        third = estimate_shard_payload_bytes(plan, attempt=3)
        assert first == third


class TestShardTaskFactory:
    """The one task factory behind first attempts, retries and estimates."""

    CONFIG = RunConfig.from_thresholds(
        Thresholds(theta_sim=0.8, q=3, delta_adapt=25, window_size=25),
        verify_jaccard=True,
        policy="fixed",
        initial_state=JoinState.LAP_RAP,
    )
    LEFT = [
        "LIG GE GENOVA CENTRO STORICO PORTO", "PIE TO TORINO",
        "LAZ RM ROMA CAPITALE EUR TORRINO", "VEN VE VENEZIA",
    ]
    RIGHT = [
        "LIG GE GENOVA CENTRO STORICO PORT0", "PIE TO TORINO",
        "LAZ RM ROMA CAPITALE EUR TORRIN0", "TOS FI FIRENZE",
    ]

    def _plan(self, handoff):
        return ShardPlan.build(
            _table(self.LEFT), _table(self.RIGHT, "right"), "location", 4,
            "gram-prefix", config=self.CONFIG, handoff=handoff,
        )

    @staticmethod
    def _pairs(result):
        return [
            (
                event.step, event.pair_key(), event.similarity,
                event.left.record, event.right.record,
            )
            for event in result.matches
        ]

    def test_pickle_plan_ships_each_shards_records(self):
        plan = self._plan("pickle")
        for shard_id in range(plan.shard_count):
            task = _shard_task(plan, self.CONFIG, shard_id, 1, None)
            assert task.shard_id == shard_id
            for payload, name, shard in (
                (task.left, task.left_name, plan.left_shards[shard_id]),
                (task.right, task.right_name, plan.right_shards[shard_id]),
            ):
                assert isinstance(payload, ShardInputPayload)
                assert payload.schema is shard.schema
                assert payload.records == shard.records
                assert name == shard.name

    def test_descriptors_ship_on_both_sides_and_retries_only_bump_attempt(self):
        plan = self._plan("shared-memory")
        assert plan.handoff == "shared-memory"
        descriptors = plan.block_descriptors()
        first = _shard_task(plan, self.CONFIG, 1, 1, descriptors)
        retry = _shard_task(plan, self.CONFIG, 1, 2, descriptors)
        assert (first.left, first.right) == descriptors
        assert (first.left_name, first.right_name) == (
            plan.left_shards[1].name, plan.right_shards[1].name,
        )
        assert retry.attempt == 2
        retry.attempt = 1
        assert retry == first

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="no multiprocessing.shared_memory",
    )
    def test_descriptor_and_record_tasks_run_to_the_same_shard_result(self):
        record_plan = self._plan("pickle")
        block_plan = self._plan("shared-memory")
        published = block_plan.publish_blocks()
        matched = 0
        try:
            for shard_id in range(block_plan.shard_count):
                _, from_records, _ = _run_shard_task(
                    _shard_task(record_plan, self.CONFIG, shard_id, 1, None)
                )
                _, from_blocks, _ = _run_shard_task(
                    _shard_task(
                        block_plan, self.CONFIG, shard_id, 1,
                        published.descriptors,
                    )
                )
                assert self._pairs(from_blocks) == self._pairs(from_records)
                assert from_blocks.counters == from_records.counters
                matched += len(from_blocks.matches)
        finally:
            published.release()
        assert matched >= 3
        assert live_block_count() == 0


@pytest.mark.skipif(
    not shared_memory_available(), reason="no multiprocessing.shared_memory"
)
class TestSegmentLifecycle:
    def test_publish_attach_read_release(self):
        records = _records(["alpha", None, 42, 2.5])
        block = SideBlock.encode(SCHEMA, records, stream_name="lifecycle")
        shard_rows = [[0, 2], [1, 3, 3]]
        assert live_block_count() == 0
        published = publish_block(block, shard_rows)
        try:
            assert live_block_count() == 1
            assert published.name in live_block_names()
            attached = published.descriptor.attach()
            try:
                assert list(attached.shard_rows(0)) == [0, 2]
                assert list(attached.shard_rows(1)) == [1, 3, 3]
                decoded = attached.block.records(attached.shard_rows(1))
                assert [r["value"] for r in decoded] == [None, 2.5, 2.5]
                assert decoded[0] == records[1]
            finally:
                attached.close()
                attached.close()  # idempotent
        finally:
            published.release()
        assert live_block_count() == 0
        published.release()  # idempotent
        with pytest.raises(FileNotFoundError):
            # The attach is *expected* to raise, so no handle ever exists
            # for a try/finally to close.
            published.descriptor.attach()  # repro-lint: disable=RL004

    def test_unpublished_descriptor_has_placeholder_name(self):
        block = SideBlock.encode(SCHEMA, _records(["a"]))
        descriptor = build_descriptor(block, [[0]])
        assert descriptor.name == "<unpublished>"

    def test_empty_shards_publishable(self):
        block = SideBlock.encode(SCHEMA, [])
        published = publish_block(block, [[], []])
        try:
            attached = published.descriptor.attach()
            try:
                assert list(attached.shard_rows(0)) == []
                assert attached.block.row_count == 0
            finally:
                attached.close()
        finally:
            published.release()
        assert live_block_count() == 0


class TestRowSliceStreamConstruction:
    def test_session_accepts_block_backed_shard_inputs(self):
        """`JoinSession` normalises `.stream()`-bearing inputs: handing it
        the plan's shard inputs directly equals streaming them by hand."""
        left = _table(["GENOVA", "MILANO", "ROMA", "GENOVA"])
        right = _table(["GENOVA", "TORINO", "ROMA"], "right")
        config = RunConfig.from_thresholds(Thresholds(delta_adapt=5,
                                                      window_size=5))
        plan = ShardPlan.build(left, right, "location", 2,
                               handoff="shared-memory")
        assert plan.handoff == "shared-memory"
        direct = JoinSession(
            plan.left_shards[0], plan.right_shards[0], "location", config
        ).run()
        via_streams = JoinSession(
            *plan.shard_streams(0), "location", config
        ).run()
        assert direct.matched_pairs() == via_streams.matched_pairs()
        assert direct.counters.as_dict() == via_streams.counters.as_dict()


class TestPrefixGramPartitioner:
    CONFIG = RunConfig.from_thresholds(
        Thresholds(theta_sim=0.85, q=3, delta_adapt=25, window_size=25),
        verify_jaccard=True,
        policy="fixed",
        initial_state=JoinState.LAP_RAP,
    )

    @staticmethod
    def _variant_corpus():
        base = [
            "LIG GE GENOVA", "LOM MI MILANO CENTRO", "LAZ RM ROMA CAPITALE",
            "VEN VE VENEZIA MESTRE", "TOS FI FIRENZE NOVOLI",
            "CAM NA NAPOLI CENTRO", "PIE TO TORINO AURORA",
            "SIC PA PALERMO KALSA", "PUG BA BARI MADONNELLA",
            "EMR BO BOLOGNA SAVENA",
        ]
        variants = [v.replace("O", "0", 1) for v in base]
        return base, base + variants

    def test_prefix_length_matches_the_overlap_bound(self):
        partitioner = PrefixGramPartitioner(theta=0.8)
        # g=5: required = ceil(0.8*5) = 4, prefix = 5-4+1 = 2 — and the
        # epsilon guard keeps 0.8*5 from ceil-ing to 5 under FP wobble.
        assert partitioner.prefix_length(5) == 2
        assert partitioner.prefix_length(1) == 1
        exact = PrefixGramPartitioner(theta=1.0)
        assert exact.prefix_length(7) == 1

    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            PrefixGramPartitioner(theta=0.0)
        with pytest.raises(ValueError, match="theta"):
            PrefixGramPartitioner(theta=1.5)

    def test_check_config_rejects_theta_mismatch(self):
        partitioner = PrefixGramPartitioner(theta=0.95)
        with pytest.raises(ValueError, match="theta"):
            partitioner.check_config(self.CONFIG)
        PrefixGramPartitioner.from_config(self.CONFIG).check_config(self.CONFIG)

    def test_unprepared_partitioner_replicates_on_every_gram(self):
        """Without corpus frequencies the prefix degrades to full gram
        replication — a safe over-approximation for direct callers."""
        prefix = PrefixGramPartitioner(q=3, theta=0.85)
        for value in ("GENOVA", "MILANO CENTRO", "xy"):
            every_gram_owner = tuple(sorted({
                zlib.crc32(gram.encode("utf-8")) % 4
                for gram in distinct_qgrams(value, q=3, padded=True)
            }))
            assert prefix.assign_many(JoinSide.LEFT, 0, value, 4) == (
                every_gram_owner
            )

    def test_prepared_partitioner_replicates_strictly_less(self):
        left_values, right_values = self._variant_corpus()
        unprepared = PrefixGramPartitioner.from_config(self.CONFIG)
        full_replicas = sum(
            len(unprepared.assign_many(side, 0, value, 4))
            for side, values in (
                (JoinSide.LEFT, left_values), (JoinSide.RIGHT, right_values)
            )
            for value in values
        )
        prefix_plan = ShardPlan.build(
            _table(left_values), _table(right_values, "right"), "location",
            4, "gram-prefix", config=self.CONFIG, handoff="pickle",
        )
        replicas = sum(len(s) for s in prefix_plan.left_shards) + sum(
            len(s) for s in prefix_plan.right_shards
        )
        assert replicas < full_replicas
        # Still replication (> one home per record) on this corpus.
        assert replicas > len(left_values) + len(right_values)

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("handoff", ["pickle", "shared-memory"])
    def test_recall_stays_exactly_one(self, shards, handoff):
        """The acceptance bar: gram-prefix reproduces the unsharded
        all-approximate match set exactly (guarantee 6)."""
        left_values, right_values = self._variant_corpus()
        left, right = _table(left_values), _table(right_values, "right")
        reference = JoinSession(left, right, "location", self.CONFIG).run()
        sharded = run_sharded(
            left, right, "location", self.CONFIG,
            shards=shards, partitioner="gram-prefix", handoff=handoff,
        )
        assert sharded.pair_set() == frozenset(reference.matched_pairs())
        assert live_block_count() == 0

    def test_prefix_routing_is_deterministic(self):
        left_values, right_values = self._variant_corpus()
        plans = [
            ShardPlan.build(
                _table(left_values), _table(right_values, "right"),
                "location", 4, "gram-prefix", config=self.CONFIG,
                handoff="pickle",
            )
            for _ in range(2)
        ]
        first, second = plans
        for side in ("left_shards", "right_shards"):
            assert [
                list(s.origins) for s in getattr(first, side)
            ] == [list(s.origins) for s in getattr(second, side)]
