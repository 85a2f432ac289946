"""Tests for the JSON payload schema and the shard-outcome codec."""

import json

import pytest

from repro.core.thresholds import Thresholds
from repro.jobs import (
    PayloadError,
    build_job,
    decode_shard_outcome,
    encode_shard_outcome,
    normalize_payload,
)
from repro.runtime.sharding import ShardOutcome, ShardPlan


def _inline(table):
    return {
        "columns": list(table.schema.attributes),
        "rows": [list(record.values) for record in table],
    }


def _payload(atlas, accidents, **extra):
    payload = {
        "left": _inline(atlas),
        "right": _inline(accidents),
        "attribute": "location",
    }
    payload.update(extra)
    return payload


class TestNormalize:
    def test_fills_defaults(self, atlas_table, accidents_table):
        canonical = normalize_payload(_payload(atlas_table, accidents_table))
        assert canonical["strategy"] == "adaptive"
        assert canonical["shards"] == 1
        assert canonical["backend"] == "serial"
        assert canonical["partitioner"] == "hash"
        assert canonical["priority"] == 1
        # progress defaults on for adaptive jobs (the server's status
        # endpoint reports it).
        assert canonical["progress"] is True

    def test_progress_defaults_off_for_baselines(self, atlas_table, accidents_table):
        canonical = normalize_payload(
            _payload(atlas_table, accidents_table, strategy="exact")
        )
        assert canonical["progress"] is False

    def test_canonical_form_is_idempotent(self, atlas_table, accidents_table):
        once = normalize_payload(
            _payload(atlas_table, accidents_table, shards=3, priority=2)
        )
        assert normalize_payload(once) == once

    def test_canonical_form_is_json_serialisable(self, atlas_table, accidents_table):
        canonical = normalize_payload(
            _payload(
                atlas_table,
                accidents_table,
                shards=2,
                thresholds={"delta_adapt": 25, "window_size": 25},
                policy={"name": "budget-greedy", "budget": 0.5},
                on_failure={"policy": "retry", "retries": 2},
            )
        )
        assert json.loads(json.dumps(canonical)) == canonical

    def test_rejects_unknown_keys(self, atlas_table, accidents_table):
        with pytest.raises(PayloadError, match="unknown"):
            normalize_payload(
                _payload(atlas_table, accidents_table, shard_count=4)
            )

    def test_rejects_missing_attribute(self, atlas_table, accidents_table):
        payload = _payload(atlas_table, accidents_table)
        del payload["attribute"]
        with pytest.raises(PayloadError, match="attribute"):
            normalize_payload(payload)

    def test_rejects_both_csv_and_inline_per_side(self, atlas_table, accidents_table):
        with pytest.raises(PayloadError, match="exactly one"):
            normalize_payload(
                _payload(atlas_table, accidents_table, left_csv="x.csv")
            )

    def test_rejects_missing_side(self, accidents_table):
        with pytest.raises(PayloadError, match="exactly one"):
            normalize_payload(
                {"right": _inline(accidents_table), "attribute": "location"}
            )

    def test_rejects_bad_priority(self, atlas_table, accidents_table):
        with pytest.raises(PayloadError, match="priority"):
            normalize_payload(
                _payload(atlas_table, accidents_table, priority=0)
            )

    def test_rejects_unknown_threshold_key(self, atlas_table, accidents_table):
        with pytest.raises(PayloadError, match="threshold"):
            normalize_payload(
                _payload(atlas_table, accidents_table, thresholds={"window": 5})
            )

    def test_rejects_non_mapping(self):
        with pytest.raises(PayloadError, match="JSON object"):
            normalize_payload([1, 2, 3])

    def test_csv_side(self, tmp_path, atlas_table, accidents_table):
        left_path = tmp_path / "left.csv"
        right_path = tmp_path / "right.csv"
        atlas_table.to_csv(str(left_path))
        accidents_table.to_csv(str(right_path))
        canonical = normalize_payload(
            {
                "left_csv": str(left_path),
                "right_csv": str(right_path),
                "attribute": "location",
            }
        )
        handle = build_job(canonical)
        assert len(handle.spec.left) == len(atlas_table)
        assert len(handle.spec.right) == len(accidents_table)


class TestBuildJob:
    def test_builds_runnable_handle(self, atlas_table, accidents_table):
        handle = build_job(
            normalize_payload(_payload(atlas_table, accidents_table))
        )
        result = handle.run()
        assert result.pair_count > 0

    def test_builder_validation_surfaces_as_payload_error(
        self, atlas_table, accidents_table
    ):
        # --stream-style constraints live in the builder; its errors must
        # come back as PayloadError so the server answers 400, not 500.
        with pytest.raises(PayloadError):
            build_job(
                normalize_payload(
                    _payload(
                        atlas_table,
                        accidents_table,
                        strategy="exact",
                        shards=4,
                    )
                )
            )

    def test_thresholds_and_policy_reach_the_spec(
        self, atlas_table, accidents_table
    ):
        handle = build_job(
            normalize_payload(
                _payload(
                    atlas_table,
                    accidents_table,
                    thresholds={"delta_adapt": 25, "window_size": 25},
                    policy={"name": "budget-greedy", "budget": 0.5},
                    shards=2,
                    priority=3,
                )
            )
        )
        assert handle.spec.run_config.thresholds == Thresholds(
            delta_adapt=25, window_size=25
        )
        assert handle.spec.run_config.policy == "budget-greedy"
        assert handle.spec.shards == 2

    def test_failure_policy_reaches_the_spec(self, atlas_table, accidents_table):
        handle = build_job(
            normalize_payload(
                _payload(
                    atlas_table,
                    accidents_table,
                    shards=2,
                    on_failure={"policy": "retry", "retries": 2},
                )
            )
        )
        assert handle.spec.failure_policy is not None


class TestOutcomeCodec:
    def test_round_trip(self, small_dataset):
        from repro.jobs import LinkageJob

        handle = (
            LinkageJob.between(small_dataset.parent, small_dataset.child)
            .on("location")
            .thresholds(Thresholds(delta_adapt=25, window_size=25))
            .sharded(2)
            .build()
        )
        handle.run()
        outcome = handle.shard_outcomes[0]
        decoded = decode_shard_outcome(encode_shard_outcome(outcome))
        assert decoded.shard_id == outcome.shard_id
        assert decoded.wall_seconds == outcome.wall_seconds
        assert decoded.result == outcome.result
        # The columns carry no origins: bound to the rebuilt (same) plan,
        # they give back the same pairs and events.
        plan = ShardPlan.build(
            small_dataset.parent, small_dataset.child, "location", 2,
            config=handle.spec.run_config,
        )
        bound = ShardOutcome.of(
            plan, decoded.shard_id, decoded.result, decoded.wall_seconds
        )
        assert bound.left_origins == outcome.left_origins
        assert bound.matched_pairs() == outcome.matched_pairs()
        assert bound.result.matches == outcome.result.matches

    def test_decode_rejects_garbage(self):
        import base64
        import pickle

        blob = base64.b64encode(pickle.dumps({"not": "an outcome"})).decode()
        with pytest.raises(PayloadError, match="ShardOutcome"):
            decode_shard_outcome(blob)
