"""Tests for partitioners, shard plans and mergeable shard results."""

import dataclasses
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state_machine import JoinState
from repro.core.thresholds import Thresholds
from repro.core.trace import ExecutionTrace, merge_traces
from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case
from repro.engine.streams import GeneratorStream, IteratorStream, ListStream
from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinAttribute, JoinSide, OperationCounters
from repro.joins.fastpath import distinct_qgrams
from repro.runtime.config import RunConfig
from repro.runtime.sharding import (
    HashPartitioner,
    Partitioner,
    PrefixGramPartitioner,
    ShardPlan,
    available_partitioners,
    create_partitioner,
    merge_counters,
)

SCHEMA = Schema(["row_id", "location"], name="rows")


def _records(values):
    return [
        Record.from_values(SCHEMA, [index, value])
        for index, value in enumerate(values)
    ]


class TestPartitionerRegistry:
    def test_exactly_two_partitioners(self):
        assert available_partitioners() == ("gram-prefix", "hash")

    def test_create_by_name(self):
        assert isinstance(create_partitioner("hash"), HashPartitioner)
        assert isinstance(
            create_partitioner("gram-prefix"), PrefixGramPartitioner
        )

    def test_create_with_config_forwards_to_from_config(self):
        config = RunConfig.from_thresholds(
            Thresholds(q=2, theta_sim=0.9), padded_qgrams=False
        )
        prefix = create_partitioner("gram-prefix", config=config)
        assert (prefix.q, prefix.padded, prefix.theta) == (2, False, 0.9)
        # Config-insensitive partitioners ignore the config entirely.
        assert isinstance(create_partitioner("hash", config=config), HashPartitioner)

    @pytest.mark.parametrize("name", ["nope", "gram", "round-robin", "range"])
    def test_unknown_partitioner_error_lists_the_available_ones(self, name):
        with pytest.raises(ValueError, match=r"\('gram-prefix', 'hash'\)"):
            create_partitioner(name)


class TestBuiltinPartitioners:
    def test_hash_co_partitions_equal_values_across_sides(self):
        partitioner = HashPartitioner()
        for value in ("GENOVA", "MILANO CENTRO", "", "ROMA"):
            for shard_count in (2, 4, 8):
                left = partitioner.assign(JoinSide.LEFT, 0, value, shard_count)
                right = partitioner.assign(JoinSide.RIGHT, 99, value, shard_count)
                assert left == right
                assert 0 <= left < shard_count

    def test_hash_is_stable_across_instances(self):
        first = HashPartitioner()
        second = HashPartitioner()
        for value in ("a", "bb", "ccc"):
            assert first.assign(JoinSide.LEFT, 0, value, 8) == second.assign(
                JoinSide.RIGHT, 5, value, 8
            )


class TestGramReplication:
    """An unprepared gram-prefix partitioner replicates on every gram."""

    def test_replicates_flag_and_defaults(self):
        partitioner = PrefixGramPartitioner()
        assert partitioner.replicates is True
        assert (partitioner.q, partitioner.padded) == (3, True)
        assert HashPartitioner.replicates is False

    def test_assign_many_routes_to_every_gram_owner(self):
        partitioner = PrefixGramPartitioner()
        targets = partitioner.assign_many(JoinSide.LEFT, 0, "GENOVA", 4)
        expected = sorted(
            {
                zlib.crc32(gram.encode("utf-8")) % 4
                for gram in distinct_qgrams("GENOVA", q=3, padded=True)
            }
        )
        assert list(targets) == expected
        assert len(expected) > 1  # genuinely replicated at this width

    def test_assignment_ignores_side_and_ordinal(self):
        partitioner = PrefixGramPartitioner()
        assert partitioner.assign_many(
            JoinSide.LEFT, 0, "MILANO CENTRO", 8
        ) == partitioner.assign_many(JoinSide.RIGHT, 123, "MILANO CENTRO", 8)

    def test_variant_pair_always_shares_a_shard(self):
        """Any gram-sharing pair co-locates somewhere — the recall core."""
        partitioner = PrefixGramPartitioner()
        for shard_count in (2, 4, 8, 16):
            left = set(
                partitioner.assign_many(
                    JoinSide.LEFT, 0, "MILANO CENTRO", shard_count
                )
            )
            right = set(
                partitioner.assign_many(
                    JoinSide.RIGHT, 1, "MILANx CENTRO", shard_count
                )
            )
            assert left & right

    def test_gram_free_value_falls_back_to_hash_co_partitioning(self):
        partitioner = PrefixGramPartitioner(q=3, padded=False)
        left = partitioner.assign_many(JoinSide.LEFT, 0, "ab", 4)
        right = partitioner.assign_many(JoinSide.RIGHT, 9, "ab", 4)
        assert left == right
        assert len(left) == 1
        assert left[0] == HashPartitioner().assign(JoinSide.LEFT, 0, "ab", 4)

    def test_assign_is_the_first_owner(self):
        partitioner = PrefixGramPartitioner()
        for value in ("GENOVA", "ROMA", ""):
            assert partitioner.assign(JoinSide.LEFT, 0, value, 8) == (
                partitioner.assign_many(JoinSide.LEFT, 0, value, 8)[0]
            )

    def test_from_config_mirrors_engine_tokenisation(self):
        config = RunConfig.from_thresholds(Thresholds(q=2), padded_qgrams=False)
        partitioner = PrefixGramPartitioner.from_config(config)
        assert (partitioner.q, partitioner.padded) == (2, False)
        assert PrefixGramPartitioner.from_config(None).q == 3

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError, match="q must be positive"):
            PrefixGramPartitioner(q=0)

    def test_hand_built_instance_mismatching_config_rejected_at_build(self):
        config = RunConfig.from_thresholds(Thresholds(q=2))
        with pytest.raises(ValueError, match="full-recall guarantee"):
            ShardPlan.build(
                ListStream(SCHEMA, _records(["abcd"])),
                ListStream(SCHEMA, _records(["abcd"])),
                "location",
                shard_count=2,
                partitioner=PrefixGramPartitioner(),  # q=3 ≠ config q=2
                config=config,
            )

    @pytest.mark.parametrize(
        "field, partitioner",
        [
            ("q", PrefixGramPartitioner(q=2)),
            ("padded", PrefixGramPartitioner(padded=False)),
            ("theta", PrefixGramPartitioner(theta=0.9)),
        ],
        ids=["q", "padded", "theta"],
    )
    def test_check_config_refuses_each_mismatched_parameter(
        self, field, partitioner
    ):
        config = RunConfig.from_thresholds(Thresholds(q=3, theta_sim=0.85))
        assert config.padded_qgrams
        with pytest.raises(ValueError, match=f"{field}=") as refused:
            partitioner.check_config(config)
        assert "full-recall guarantee" in str(refused.value)
        PrefixGramPartitioner.from_config(config).check_config(config)

    def test_matching_instance_accepted_and_checked(self):
        config = RunConfig.from_thresholds(Thresholds(q=2), padded_qgrams=False)
        partitioner = PrefixGramPartitioner.from_config(config)
        plan = ShardPlan.build(
            ListStream(SCHEMA, _records(["abcd"])),
            ListStream(SCHEMA, _records(["abcd"])),
            "location",
            shard_count=2,
            partitioner=partitioner,
            config=config,
        )
        assert plan.partitioner is partitioner
        partitioner.check_config(None)  # no config → nothing to disagree with

    def test_one_instance_serves_multiple_shard_counts(self):
        partitioner = PrefixGramPartitioner()
        narrow = partitioner.assign_many(JoinSide.LEFT, 0, "GENOVA", 2)
        wide = partitioner.assign_many(JoinSide.LEFT, 0, "GENOVA", 16)
        assert all(0 <= shard < 2 for shard in narrow)
        assert all(0 <= shard < 16 for shard in wide)


class TestPartitionerEdgeCases:
    @pytest.mark.parametrize("name", available_partitioners())
    def test_empty_string_key_is_assigned(self, name):
        partitioner = create_partitioner(name)
        for shard_count in (1, 2, 4):
            targets = partitioner.assign_many(JoinSide.LEFT, 0, "", shard_count)
            assert targets
            assert all(0 <= shard < shard_count for shard in targets)

    @pytest.mark.parametrize("name", available_partitioners())
    def test_single_shard_absorbs_everything(self, name):
        partitioner = create_partitioner(name)
        for ordinal, value in enumerate(("", "a", "GENOVA", "北京市")):
            assert set(
                partitioner.assign_many(JoinSide.RIGHT, ordinal, value, 1)
            ) == {0}

    @settings(max_examples=60, deadline=None)
    @given(
        value=st.text(max_size=24),
        ordinal=st.integers(min_value=0, max_value=10_000),
        shard_count=st.integers(min_value=1, max_value=16),
        side=st.sampled_from(list(JoinSide)),
    )
    def test_assign_many_in_range_non_empty_deterministic(
        self, value, ordinal, shard_count, side
    ):
        """The `assign_many` contract, for every registered partitioner."""
        for name in available_partitioners():
            partitioner = create_partitioner(name)
            targets = partitioner.assign_many(side, ordinal, value, shard_count)
            assert len(targets) >= 1, name
            assert len(set(targets)) == len(targets), name
            assert all(0 <= shard < shard_count for shard in targets), name
            # Pure function of its arguments: a fresh instance agrees.
            assert (
                create_partitioner(name).assign_many(
                    side, ordinal, value, shard_count
                )
                == targets
            ), name


class TestShardPlan:
    def test_bulk_split_covers_every_record_exactly_once(self):
        values = [f"value {index % 7}" for index in range(50)]
        plan = ShardPlan.build(
            ListStream(SCHEMA, _records(values)),
            ListStream(SCHEMA, _records(values[:30])),
            "location",
            shard_count=4,
        )
        left_origins = sorted(
            origin for shard in plan.left_shards for origin in shard.origins
        )
        right_origins = sorted(
            origin for shard in plan.right_shards for origin in shard.origins
        )
        assert left_origins == list(range(50))
        assert right_origins == list(range(30))

    def test_split_is_stable_within_shards(self):
        values = [f"value {index % 5}" for index in range(40)]
        plan = ShardPlan.build(
            ListStream(SCHEMA, _records(values)),
            ListStream(SCHEMA, _records(values)),
            "location",
            shard_count=3,
        )
        for shard in plan.left_shards:
            assert shard.origins == sorted(shard.origins)
            for record, origin in zip(shard.records, shard.origins):
                assert record["row_id"] == origin

    def test_hash_plan_co_partitions_values(self):
        values = [f"value {index % 6}" for index in range(36)]
        plan = ShardPlan.build(
            ListStream(SCHEMA, _records(values)),
            ListStream(SCHEMA, _records(list(reversed(values)))),
            "location",
            shard_count=4,
        )
        left_locations = [
            {record["location"] for record in shard.records}
            for shard in plan.left_shards
        ]
        right_locations = [
            {record["location"] for record in shard.records}
            for shard in plan.right_shards
        ]
        for shard_id, locations in enumerate(left_locations):
            for other_id, other in enumerate(right_locations):
                if shard_id != other_id:
                    assert not (locations & other)

    def test_single_shard_plan_is_the_identity(self):
        values = ["a", "b", "c"]
        plan = ShardPlan.build(
            ListStream(SCHEMA, _records(values)),
            ListStream(SCHEMA, _records(values)),
            "location",
            shard_count=1,
        )
        assert plan.shard_count == 1
        left, right = plan.shard_streams(0)
        assert [record["location"] for record in left] == values
        assert [record["location"] for record in right] == values

    def test_shard_streams_are_fresh_per_call(self):
        plan = ShardPlan.build(
            ListStream(SCHEMA, _records(["a", "b"])),
            ListStream(SCHEMA, _records(["a"])),
            "location",
            shard_count=1,
        )
        first, _ = plan.shard_streams(0)
        assert sum(1 for _ in first) == 2
        second, _ = plan.shard_streams(0)
        assert sum(1 for _ in second) == 2  # not exhausted by the first pass

    def test_invalid_shard_count_rejected(self):
        stream = ListStream(SCHEMA, _records(["a"]))
        with pytest.raises(ValueError, match="shard_count"):
            ShardPlan.build(stream, stream, "location", shard_count=0)

    def test_none_values_normalise_to_empty_string(self):
        records = [Record.from_values(SCHEMA, [0, None])]
        plan = ShardPlan.build(
            ListStream(SCHEMA, records),
            ListStream(SCHEMA, records),
            "location",
            shard_count=2,
        )
        total = sum(len(shard) for shard in plan.left_shards)
        assert total == 1

    def test_build_forwards_config_to_named_partitioner(self):
        config = RunConfig.from_thresholds(Thresholds(q=2), padded_qgrams=False)
        plan = ShardPlan.build(
            ListStream(SCHEMA, _records(["abcd"])),
            ListStream(SCHEMA, _records(["abcd"])),
            "location",
            shard_count=2,
            partitioner="gram-prefix",
            config=config,
        )
        assert (plan.partitioner.q, plan.partitioner.padded) == (2, False)

    def test_string_attribute_and_joinattribute_equivalent(self):
        stream = lambda: ListStream(SCHEMA, _records(["a", "b"]))  # noqa: E731
        by_name = ShardPlan.build(stream(), stream(), "location", 2)
        by_attr = ShardPlan.build(
            stream(), stream(), JoinAttribute("location", "location"), 2
        )
        assert by_name.shard_sizes() == by_attr.shard_sizes()


class CountingStream(IteratorStream):
    """An unsized stream that counts pulls and rejects bulk over-pull."""

    def __init__(self, schema, records):
        super().__init__(schema, iter(records), name="counting")
        self.pulls = 0

    def _next(self):
        record = super()._next()
        if record is not None:
            self.pulls += 1
        return record

    def next_records(self, limit):
        if limit > 1:
            raise AssertionError(
                f"bulk pull of {limit} records from a lazy stream (over-pull)"
            )
        return super().next_records(limit)


class TestLazyStreamFanOut:
    """Partitioning a non-bulk stream pulls each record exactly once."""

    def test_iterator_stream_fanned_out_single_pass(self):
        records = _records([f"value {index % 3}" for index in range(25)])
        left = CountingStream(SCHEMA, records)
        right = CountingStream(SCHEMA, records)
        assert not left.supports_bulk_pull
        plan = ShardPlan.build(left, right, "location", shard_count=3)
        assert left.pulls == 25
        assert right.pulls == 25
        assert sum(len(shard) for shard in plan.left_shards) == 25
        assert sum(len(shard) for shard in plan.right_shards) == 25

    def test_generator_stream_fanned_out_single_pass(self):
        produced = []

        def factory():
            for index in range(12):
                record = Record.from_values(SCHEMA, [index, f"value {index % 2}"])
                produced.append(index)
                yield record

        stream = GeneratorStream(SCHEMA, factory, name="lazy")
        plan = ShardPlan.build(
            stream,
            ListStream(SCHEMA, _records(["value 0"])),
            "location",
            shard_count=2,
        )
        assert produced == list(range(12))  # each record produced exactly once
        assert sum(len(shard) for shard in plan.left_shards) == 12


class TestReplicatedShardPlan:
    """Gram-replicated plans: multi-shard routing with shared origins."""

    def _values(self, count):
        return [f"location {index % 5}" for index in range(count)]

    def test_gram_prefix_plan_replicates_with_correct_origins(self):
        values = self._values(20)
        plan = ShardPlan.build(
            ListStream(SCHEMA, _records(values)),
            ListStream(SCHEMA, _records(values)),
            "location",
            shard_count=4,
            partitioner="gram-prefix",
        )
        total = sum(len(shard) for shard in plan.left_shards)
        assert total > 20  # records appear in more than one shard
        assert plan.left_input_size == 20
        assert plan.right_input_size == 20
        # Every copy keeps its global identity, and no origin is lost.
        for shard in plan.left_shards:
            assert shard.origins == sorted(shard.origins)
            for record, origin in zip(shard.records, shard.origins):
                assert record["row_id"] == origin
        covered = {
            origin for shard in plan.left_shards for origin in shard.origins
        }
        assert covered == set(range(20))

    def test_replication_factors(self):
        values = self._values(24)
        prefix_plan = ShardPlan.build(
            ListStream(SCHEMA, _records(values)),
            ListStream(SCHEMA, _records(values)),
            "location",
            shard_count=4,
            partitioner="gram-prefix",
        )
        left_factor, right_factor = prefix_plan.replication_factors()
        assert left_factor > 1.0
        assert left_factor == sum(len(s) for s in prefix_plan.left_shards) / 24
        assert right_factor == left_factor  # identical inputs
        hash_plan = ShardPlan.build(
            ListStream(SCHEMA, _records(values)),
            ListStream(SCHEMA, _records(values)),
            "location",
            shard_count=4,
        )
        assert hash_plan.replication_factors() == (1.0, 1.0)

    def test_lazy_stream_still_pulled_exactly_once(self):
        records = _records(self._values(15))
        left = CountingStream(SCHEMA, records)
        right = CountingStream(SCHEMA, records)
        ShardPlan.build(
            left, right, "location", shard_count=4, partitioner="gram-prefix"
        )
        assert left.pulls == 15  # replication copies references, never re-pulls
        assert right.pulls == 15

    def test_out_of_range_assignment_rejected(self):
        class Rogue(Partitioner):
            def assign(self, side, ordinal, value, shard_count):
                return shard_count  # one past the end

        with pytest.raises(ValueError, match="outside"):
            ShardPlan.build(
                ListStream(SCHEMA, _records(["a"])),
                ListStream(SCHEMA, _records(["a"])),
                "location",
                shard_count=2,
                partitioner=Rogue(),
            )

    def test_empty_assignment_rejected(self):
        class Silent(Partitioner):
            def assign_many(self, side, ordinal, value, shard_count):
                return ()

        with pytest.raises(ValueError, match="no shard"):
            ShardPlan.build(
                ListStream(SCHEMA, _records(["a"])),
                ListStream(SCHEMA, _records(["a"])),
                "location",
                shard_count=2,
                partitioner=Silent(),
            )

    def test_duplicate_assignment_rejected(self):
        class Stutter(Partitioner):
            def assign_many(self, side, ordinal, value, shard_count):
                return (0, 0)  # would silently double-store the record

        with pytest.raises(ValueError, match="duplicate shards"):
            ShardPlan.build(
                ListStream(SCHEMA, _records(["a"])),
                ListStream(SCHEMA, _records(["a"])),
                "location",
                shard_count=2,
                partitioner=Stutter(),
            )


class _LoopPrefixGramPartitioner(PrefixGramPartitioner):
    """The gram-prefix routing as first written, kept as the reference:
    per-gram frequency and CRC dictionaries and a ``lambda`` sort key."""

    def prepare(self, left_keys, right_keys, shard_count):
        frequency = {}
        for keys in (left_keys, right_keys):
            for key in keys:
                for gram_id in self._interner.intern_value(key):
                    frequency[gram_id] = frequency.get(gram_id, 0) + 1
        gram = self._interner.gram
        ordered = sorted(
            frequency, key=lambda gram_id: (frequency[gram_id], gram(gram_id))
        )
        self._loop_rank = {gram_id: rank for rank, gram_id in enumerate(ordered)}
        self._prepared = True

    def assign_many(self, side, ordinal, value, shard_count):
        gram_ids = self._interner.intern_value(value)
        if not gram_ids:
            return (zlib.crc32(value.encode("utf-8")) % shard_count,)
        if self._prepared:
            prefix = self.prefix_length(len(gram_ids))
            if prefix < len(gram_ids):
                rank = self._loop_rank
                unseen = len(rank)
                gram_ids = sorted(
                    gram_ids, key=lambda gram_id: rank.get(gram_id, unseen)
                )[:prefix]
        gram = self._interner.gram
        return tuple(sorted({
            zlib.crc32(gram(gram_id).encode("utf-8")) % shard_count
            for gram_id in gram_ids
        }))


class TestPrefixGramRoutingReference:
    """The list-ranked, memoised routing equals the loop reference."""

    @pytest.mark.parametrize("shards", [4, 7])
    def test_seed_42_sharded_workload_rows_identical(self, shards):
        # The dataset of the seed-42 `sharded_approx_16k` benchmark op.
        case = dataclasses.replace(
            STANDARD_TEST_CASES["uniform_child"], seed=42 * 1000 + 30
        )
        dataset = generate_test_case(case, 8_000, 8_000)
        config = RunConfig()
        plans = [
            ShardPlan.build(
                dataset.parent, dataset.child, "location", shards,
                partitioner, config=config, handoff="pickle",
            )
            for partitioner in (
                PrefixGramPartitioner.from_config(config),
                _LoopPrefixGramPartitioner.from_config(config),
            )
        ]
        fast, loop = plans
        for side in ("left_shards", "right_shards"):
            assert [shard.origins for shard in getattr(fast, side)] == [
                shard.origins for shard in getattr(loop, side)
            ]
        assert fast.replication_factors()[0] > 1.0

    def test_direct_calls_agree_before_and_after_prepare(self):
        values = ["GENOVA", "MILANO CENTRO", "xy", "", "GENOVA", "ROMA EUR"]
        fast, loop = PrefixGramPartitioner(), _LoopPrefixGramPartitioner()
        # Unprepared, every gram owns a replica.
        assert [fast.assign_many(JoinSide.LEFT, 0, v, 4) for v in values] == [
            loop.assign_many(JoinSide.LEFT, 0, v, 4) for v in values
        ]
        fast.prepare(values[:3], values[3:], 4)
        loop.prepare(values[:3], values[3:], 4)
        # Values outside the prepared corpus rank their new grams last.
        probes = values + ["TORINO AURORA", "GENOVA PORTO"]
        for width in (4, 3):
            assert [fast.assign_many(JoinSide.RIGHT, 0, v, width) for v in probes] == [
                loop.assign_many(JoinSide.RIGHT, 0, v, width) for v in probes
            ]


class TestMergeCounters:
    def test_merge_counters_sums_fields(self):
        first = OperationCounters(qgrams_obtained=3, exact_probes=1)
        second = OperationCounters(qgrams_obtained=4, matches_emitted=2)
        merged = merge_counters([first, second])
        assert merged.qgrams_obtained == 7
        assert merged.exact_probes == 1
        assert merged.matches_emitted == 2

    def test_merge_counters_empty_is_zero(self):
        assert merge_counters([]).as_dict() == OperationCounters().as_dict()


class TestMergeTraces:
    def _trace_with(self, steps, transition_step=None):
        trace = ExecutionTrace()
        for index in range(steps):
            side = JoinSide.LEFT if index % 2 == 0 else JoinSide.RIGHT
            trace.record_step(JoinState.LEX_REX, side, matches=0)
        if transition_step is not None:
            trace.record_transition(
                transition_step, JoinState.LEX_REX, JoinState.LAP_RAP, []
            )
        return trace

    def test_totals_add_up(self):
        merged = merge_traces([self._trace_with(4), self._trace_with(6)])
        assert merged.total_steps == 10
        assert merged.steps_per_state[JoinState.LEX_REX] == 10
        assert merged.left_scanned == 5
        assert merged.right_scanned == 5

    def test_transition_steps_are_offset_and_shard_tagged(self):
        first = self._trace_with(10, transition_step=4)
        second = self._trace_with(20, transition_step=8)
        merged = merge_traces([first, second])
        assert [record.step for record in merged.transitions] == [4, 18]
        assert [record.shard for record in merged.transitions] == [0, 1]
        assert merged.transitions_into[JoinState.LAP_RAP] == 2

    def test_assessment_steps_are_offset_too(self):
        from repro.core.assessor import Assessment
        from repro.core.state_machine import TransitionGuards

        def assessed_trace(steps, assess_step):
            trace = self._trace_with(steps)
            assessment = Assessment(
                step=assess_step,
                sigma=True,
                mu={side: True for side in JoinSide},
                pi={side: False for side in JoinSide},
                evidence_available=True,
                outlier_probability=0.5,
                shortfall=0.0,
            )
            guards = TransitionGuards(False, False, False, False)
            trace.record_assessment(
                assessment, guards, JoinState.LEX_REX, JoinState.LEX_REX
            )
            return trace

        merged = merge_traces(
            [assessed_trace(10, 5), assessed_trace(10, 5)]
        )
        assert [
            record.assessment.step for record in merged.assessments
        ] == [5, 15]

    def test_explicit_shard_ids(self):
        merged = merge_traces(
            [self._trace_with(2, 1), self._trace_with(2, 1)], shard_ids=[7, 3]
        )
        assert [record.shard for record in merged.transitions] == [7, 3]

    def test_shard_id_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shard ids"):
            merge_traces([self._trace_with(1)], shard_ids=[1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_traces([])

    def test_weighted_cost_of_merge_is_sum_of_parts(self):
        from repro.core.cost_model import CostModel

        model = CostModel()
        parts = [self._trace_with(10, 4), self._trace_with(20, 8)]
        merged = merge_traces(parts)
        assert model.absolute_cost(merged) == pytest.approx(
            sum(model.absolute_cost(part) for part in parts)
        )
