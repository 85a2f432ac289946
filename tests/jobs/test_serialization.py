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


def _payload_of(dataset, **extra):
    payload = {
        "left": _inline(dataset.parent),
        "right": _inline(dataset.child),
        "attribute": "location",
        "thresholds": {"delta_adapt": 25, "window_size": 25},
    }
    payload.update(extra)
    return payload


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


_SIDE = {"columns": ["row_id", "location"], "rows": [[0, "LIG GE GENOVA"]]}


class TestNormalizeRejectsEachMalformedField:
    """Every shape check of :func:`normalize_payload` answers with a
    :class:`PayloadError` naming the field, never a ``KeyError`` or
    ``TypeError`` the server would turn into a 500."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"left": None, "left_csv": ""}, "'left_csv' must be a non-empty path"),
            ({"left": None, "left_csv": 5}, "'left_csv' must be a non-empty path"),
            ({"left": [[0, "x"]]}, "'left' must be a JSON object"),
            (
                {"left": {**_SIDE, "types": ["int", "str"]}},
                "unknown 'left' inline-table",
            ),
            ({"left": {**_SIDE, "columns": []}}, r"'left\.columns' must be"),
            ({"left": {**_SIDE, "columns": [0, 1]}}, r"'left\.columns' must be"),
            (
                {"left": {**_SIDE, "columns": ["row_id", ""]}},
                r"'left\.columns' must be",
            ),
            ({"left": {**_SIDE, "rows": "0,GENOVA"}}, r"'left\.rows' must be a list"),
            (
                {"left": {**_SIDE, "rows": [[0]]}},
                r"'left\.rows\[0\]' must be a list of 2",
            ),
            ({"left": {**_SIDE, "rows": ["0,GENOVA"]}}, r"'left\.rows\[0\]'"),
            (
                {"right": {**_SIDE, "rows": [[0, "x"], [1, "y", "z"]]}},
                r"'right\.rows\[1\]'",
            ),
            ({"attribute": ""}, "'attribute' is required"),
            ({"attribute": 5}, "'attribute' is required"),
            (
                {"attribute": {"left": "location", "right": "location", "both": 1}},
                "unknown 'attribute' key",
            ),
            ({"attribute": {"right": "location"}}, r"'attribute\.left'"),
            ({"attribute": {"left": "location", "right": ""}}, r"'attribute\.right'"),
            ({"strategy": "fuzzy"}, "unknown strategy 'fuzzy'"),
            ({"threshold": "0.8"}, "'threshold' must be a number"),
            ({"shards": 2.5}, "'shards' must be a number"),
            ({"shards": True}, "'shards' must be a number"),
            ({"max_workers": "4"}, "'max_workers' must be a number"),
            ({"priority": -2}, "'priority' must be a positive integer"),
            ({"backend": 3}, "'backend' must be a string"),
            ({"partitioner": ["hash"]}, "'partitioner' must be a string"),
            ({"handoff": 1}, "'handoff' must be a string"),
            ({"thresholds": [0.8]}, "'thresholds' must be a JSON object"),
            ({"policy": {"name": "mar", "budgte": 0.5}}, "unknown 'policy' key"),
            ({"policy": {"budget": 0.5}}, r"'policy\.name'"),
            ({"policy": 5}, "'policy' must be a JSON object"),
            (
                {"on_failure": {"policy": "retry", "retry": 2}},
                "unknown 'on_failure' key",
            ),
            ({"on_failure": {"retries": 2}}, r"'on_failure\.policy'"),
            ({"on_failure": ["retry"]}, "'on_failure' must be a JSON object"),
            ({"progress": "yes"}, "'progress' must be a boolean"),
        ],
        ids=[
            "left_csv-empty",
            "left_csv-not-a-string",
            "left-not-an-object",
            "left-unknown-key",
            "left-columns-empty",
            "left-columns-not-names",
            "left-columns-blank-name",
            "left-rows-not-a-list",
            "left-row-too-short",
            "left-row-not-a-list",
            "right-row-too-long",
            "attribute-empty",
            "attribute-not-a-name",
            "attribute-unknown-key",
            "attribute-left-missing",
            "attribute-right-empty",
            "strategy-unknown",
            "threshold-a-string",
            "shards-a-float",
            "shards-a-bool",
            "max_workers-a-string",
            "priority-negative",
            "backend-not-a-string",
            "partitioner-not-a-string",
            "handoff-not-a-string",
            "thresholds-not-an-object",
            "policy-unknown-key",
            "policy-without-name",
            "policy-not-an-object",
            "on_failure-unknown-key",
            "on_failure-without-policy",
            "on_failure-not-an-object",
            "progress-not-a-bool",
        ],
    )
    def test_rejects(self, atlas_table, accidents_table, overrides, message):
        payload = _payload(atlas_table, accidents_table, **overrides)
        with pytest.raises(PayloadError, match=message):
            normalize_payload(payload)

    @pytest.mark.parametrize(
        "overrides, key, canonical",
        [
            (
                {"policy": "mar"},
                "policy",
                {"name": "mar", "budget": None, "seconds": None},
            ),
            (
                {"on_failure": "retry"},
                "on_failure",
                {
                    "policy": "retry",
                    "retries": None,
                    "backoff_seconds": None,
                    "backoff_multiplier": None,
                    "shard_timeout": None,
                },
            ),
            (
                {"attribute": {"left": "location", "right": "location"}},
                "attribute",
                {"left": "location", "right": "location"},
            ),
        ],
        ids=["policy-name", "on_failure-name", "attribute-per-side"],
    )
    def test_expands_shorthand(
        self, atlas_table, accidents_table, overrides, key, canonical
    ):
        payload = _payload(atlas_table, accidents_table, **overrides)
        assert normalize_payload(payload)[key] == canonical


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


class TestBuildJobRejectsEachInvalidSetting:
    """The builder's semantic checks reach the server as
    :class:`PayloadError` too, one per setting."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"threshold": 0}, "similarity threshold must be in"),
            ({"threshold": 1.5}, "similarity threshold must be in"),
            ({"policy": {"name": "never-switch"}}, "unknown switch policy"),
            ({"policy": {"name": "mar", "budget": 0}}, "budget_fraction must be in"),
            (
                {"policy": {"name": "deadline", "seconds": -1}},
                "deadline_seconds must be positive",
            ),
            ({"shards": 0}, "shards must be at least 1"),
            ({"shards": 2, "backend": "gpu"}, "unknown execution backend 'gpu'"),
            ({"shards": 2, "partitioner": "range"}, "unknown partitioner 'range'"),
            ({"shards": 2, "handoff": "mmap"}, "unknown handoff mode 'mmap'"),
            ({"shards": 2, "max_workers": 0}, "max_workers must be at least 1"),
            ({"on_failure": "ignore"}, "unknown failure policy 'ignore'"),
            (
                {"on_failure": {"policy": "retry", "retries": -1}},
                "retries must be >= 0",
            ),
            (
                {"on_failure": {"policy": "fail-fast", "retries": 2}},
                "do not apply to the 'fail-fast' policy",
            ),
            (
                {"strategy": "approximate", "policy": "mar"},
                "only applies to the adaptive strategy",
            ),
            (
                {"strategy": "blocking", "shards": 2},
                "only available for the adaptive strategy",
            ),
            ({"left": None, "left_csv": "no-such-file.csv"}, "cannot read 'left_csv'"),
        ],
        ids=[
            "threshold-zero",
            "threshold-above-one",
            "policy-unknown",
            "policy-budget-zero",
            "policy-deadline-negative",
            "shards-zero",
            "backend-unknown",
            "partitioner-unknown",
            "handoff-unknown",
            "max_workers-zero",
            "on_failure-unknown",
            "on_failure-negative-retries",
            "on_failure-fail-fast-with-retries",
            "baseline-with-policy",
            "baseline-sharded",
            "left_csv-missing-file",
        ],
    )
    def test_rejects(self, tmp_path, atlas_table, accidents_table, overrides, message):
        if overrides.get("left_csv"):
            overrides = {**overrides, "left_csv": str(tmp_path / overrides["left_csv"])}
        payload = normalize_payload(
            _payload(atlas_table, accidents_table, **overrides)
        )
        with pytest.raises(PayloadError, match=message):
            build_job(payload)


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

    def test_carried_output_schema_never_reaches_the_result(self, small_dataset):
        """A line carries its session's output schema: the full one for
        lines written before workers joined key records, a one-column one
        for a worker's unbound result.  Bound to the plan, both give the
        plan's schema and the same output records."""
        import dataclasses

        from repro.engine.tuples import Schema

        payload = _payload_of(small_dataset, shards=2, backend="process")
        handle = build_job(payload)
        reference = handle.run()
        plan = handle.spec.shard_plan()
        restored = []
        for carried in (plan.output_schema, Schema(["location"], name="keys")):
            outcomes = [
                decode_shard_outcome(encode_shard_outcome(dataclasses.replace(
                    outcome, result=dataclasses.replace(
                        outcome.result, output_schema=carried
                    ),
                )))
                for outcome in handle.shard_outcomes
            ]
            rebuilt = build_job(payload)
            rebuilt.restore(rebuilt.spec.shard_plan(), outcomes)
            restored.append(rebuilt.result())
        for result in restored:
            assert result.statistics["result_size"] == reference.pair_count
            assert result.records == reference.records
            assert result.records[0].schema == plan.output_schema

    def test_decode_rejects_garbage(self):
        import base64
        import pickle

        blob = base64.b64encode(pickle.dumps({"not": "an outcome"})).decode()
        with pytest.raises(PayloadError, match="ShardOutcome"):
            decode_shard_outcome(blob)
