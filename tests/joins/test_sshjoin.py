"""Tests for the approximate symmetric set hash join (SSHJoin)."""

import pytest

from repro.engine.streams import ListStream
from repro.engine.tuples import Record, Schema
from repro.joins.baselines import NestedLoopSimilarityJoin
from repro.joins.shjoin import SHJoin
from repro.joins.sshjoin import SSHJoin


class TestResultCorrectness:
    def test_recovers_one_character_variants(self, atlas_table, accidents_table):
        records = SSHJoin(
            atlas_table, accidents_table, "location", similarity_threshold=0.85
        ).run()
        joined_child_ids = {r.values[2] for r in records}
        # The typo'd accidents are recovered…
        assert {102, 104, 106}.issubset(joined_child_ids)
        # …the genuinely unknown location is still unmatched.
        assert 107 not in joined_child_ids

    def test_contains_every_exact_match(self, atlas_table, accidents_table):
        exact = SHJoin(atlas_table, accidents_table, "location")
        exact_records = exact.run()
        approx = SSHJoin(
            atlas_table, accidents_table, "location", similarity_threshold=0.85
        )
        approx_records = approx.run()
        assert set(exact.engine._emitted_pairs).issubset(
            set(approx.engine._emitted_pairs)
        )
        assert len(approx_records) >= len(exact_records)

    def test_strict_jaccard_mode_matches_nested_loop_oracle(
        self, atlas_table, accidents_table
    ):
        threshold = 0.70
        operator = SSHJoin(
            atlas_table,
            accidents_table,
            "location",
            similarity_threshold=threshold,
            verify_jaccard=True,
        )
        records = operator.run()
        oracle = NestedLoopSimilarityJoin(
            atlas_table,
            accidents_table,
            "location",
            threshold=threshold,
        ).run()
        assert {tuple(r.values) for r in records} == {tuple(r.values) for r in oracle}

    def test_threshold_one_behaves_like_exact_join(self, atlas_table, accidents_table):
        approx = SSHJoin(
            atlas_table, accidents_table, "location", similarity_threshold=1.0
        )
        approx_records = approx.run()
        exact = SHJoin(atlas_table, accidents_table, "location")
        exact_records = exact.run()
        assert set(approx.engine._emitted_pairs) == set(exact.engine._emitted_pairs)
        assert len(approx_records) == len(exact_records)

    def test_invalid_threshold_rejected(self, atlas_table, accidents_table):
        with pytest.raises(ValueError):
            SSHJoin(atlas_table, accidents_table, "location", similarity_threshold=0.0)
        with pytest.raises(ValueError):
            SSHJoin(atlas_table, accidents_table, "location", similarity_threshold=1.2)

    def test_empty_inputs(self):
        schema = Schema(["key"])
        join = SSHJoin(ListStream(schema, []), ListStream(schema, []), "key")
        assert join.run() == []

    def test_symmetric_result_regardless_of_input_order(
        self, atlas_table, accidents_table
    ):
        forward = SSHJoin(atlas_table, accidents_table, "location")
        forward.run()
        backward = SSHJoin(accidents_table, atlas_table, "location")
        backward.run()
        forward_pairs = set(forward.engine._emitted_pairs)
        backward_pairs = {(b, a) for a, b in backward.engine._emitted_pairs}
        assert forward_pairs == backward_pairs


class TestPipelining:
    def test_results_stream_before_exhaustion(self):
        schema = Schema(["key"])
        values = [f"LOCATION NUMBER {i:03d}" for i in range(60)]
        left = [Record(schema, {"key": v}) for v in values]
        right = [Record(schema, {"key": v}) for v in values]
        join = SSHJoin(ListStream(schema, left), ListStream(schema, right), "key")
        join.open()
        assert join.next_record() is not None
        assert join.stats.tuples_read < 20
        join.close()

    def test_quiescence_exposed(self, atlas_table, accidents_table):
        join = SSHJoin(atlas_table, accidents_table, "location")
        join.open()
        join.next_record()
        # With unique atlas values each accident matches at most one atlas
        # row, so after returning a match the operator is quiescent.
        assert join.is_quiescent()
        join.close()


class TestOperationCounters:
    def test_qgram_operations_recorded(self, atlas_table, accidents_table):
        join = SSHJoin(atlas_table, accidents_table, "location")
        join.run()
        counters = join.operation_counters()
        assert counters.approx_probes == len(atlas_table) + len(accidents_table)
        assert counters.exact_probes == 0
        assert counters.qgrams_obtained > 0
        assert counters.approx_hash_updates > counters.approx_probes
        assert counters.candidate_set_size >= counters.matches_emitted

    def test_more_expensive_than_exact_join(self, atlas_table, accidents_table):
        exact = SHJoin(atlas_table, accidents_table, "location")
        exact.run()
        approx = SSHJoin(atlas_table, accidents_table, "location")
        approx.run()
        exact_work = (
            exact.operation_counters().exact_hash_updates
            + exact.operation_counters().exact_probe_work
        )
        approx_work = (
            approx.operation_counters().approx_hash_updates
            + approx.operation_counters().candidate_scan_work
        )
        assert approx_work > 3 * exact_work
