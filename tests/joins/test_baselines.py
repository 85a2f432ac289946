"""Tests for the non-adaptive baseline joins."""

import pytest

from repro.engine.table import Table
from repro.engine.tuples import Schema
from repro.joins.baselines import (
    BlockingLinkageJoin,
    NestedLoopJoin,
    NestedLoopSimilarityJoin,
    default_blocking_key,
    hash_join_pairs,
)


class TestNestedLoopJoin:
    def test_finds_all_exact_matches(self, atlas_table, accidents_table):
        records = NestedLoopJoin(atlas_table, accidents_table, "location").run()
        # Accidents 100, 101, 103, 105 and 108 carry clean locations.
        assert len(records) == 5

    def test_empty_right_input(self, atlas_table):
        empty = Table(atlas_table.schema)
        assert NestedLoopJoin(atlas_table, empty, "location").run() == []

    def test_duplicate_keys_produce_cross_product_within_key(self):
        schema = Schema(["row_id", "key"])
        left = Table.from_rows(schema, [(1, "X"), (2, "X")])
        right = Table.from_rows(schema, [(3, "X"), (4, "X"), (5, "Y")])
        assert len(NestedLoopJoin(left, right, "key").run()) == 4


class TestNestedLoopSimilarityJoin:
    def test_recovers_variants(self, atlas_table, accidents_table):
        join = NestedLoopSimilarityJoin(
            atlas_table, accidents_table, "location", threshold=0.75
        )
        records = join.run()
        exact = NestedLoopJoin(atlas_table, accidents_table, "location").run()
        assert len(records) > len(exact)

    def test_counts_all_pairwise_comparisons(self, atlas_table, accidents_table):
        join = NestedLoopSimilarityJoin(atlas_table, accidents_table, "location")
        join.run()
        assert join.comparisons == len(atlas_table) * len(accidents_table)

    def test_threshold_validation(self, atlas_table, accidents_table):
        with pytest.raises(ValueError):
            NestedLoopSimilarityJoin(
                atlas_table, accidents_table, "location", threshold=0.0
            )


class TestBlockingLinkageJoin:
    def test_recovers_variants_within_blocks(self, atlas_table, accidents_table):
        join = BlockingLinkageJoin(
            atlas_table, accidents_table, "location", threshold=0.75
        )
        records = join.run()
        joined_child_ids = {r.values[2] for r in records}
        assert {102, 104, 106}.issubset(joined_child_ids)

    def test_far_fewer_comparisons_than_nested_loop(self, atlas_table, accidents_table):
        blocking = BlockingLinkageJoin(atlas_table, accidents_table, "location")
        blocking.run()
        assert blocking.comparisons < len(atlas_table) * len(accidents_table) / 2

    def test_misses_pairs_whose_blocking_keys_disagree(self):
        schema = Schema(["row_id", "location"])
        left = Table.from_rows(schema, [(1, "GENOVA LIGURIA")])
        # Same place, but the typo falls inside the first-four-character
        # blocking key, so the pair lands in different blocks.
        right = Table.from_rows(schema, [(2, "GXNOVA LIGURIA")])
        join = BlockingLinkageJoin(left, right, "location", threshold=0.7)
        assert join.run() == []

    def test_custom_blocking_key(self, atlas_table, accidents_table):
        join = BlockingLinkageJoin(
            atlas_table,
            accidents_table,
            "location",
            threshold=0.75,
            blocking_key=lambda value: value[:2],
        )
        assert len(join.run()) >= 6

    def test_default_blocking_key(self):
        assert default_blocking_key("genova") == "GENO"
        assert default_blocking_key("ab") == "AB"


class TestHashJoinPairsOracle:
    def test_pairs_are_index_based(self, atlas_table, accidents_table):
        pairs = hash_join_pairs(atlas_table, accidents_table, "location")
        assert (0, 0) in pairs      # GENOVA matches the first accident…
        assert (0, 8) in pairs      # …and the duplicated one.
        assert len(pairs) == 5

    def test_empty_tables(self):
        schema = Schema(["key"])
        assert hash_join_pairs(Table(schema), Table(schema), "key") == []
