"""Tests for the server's wire formats."""

import json
import random

import pytest

from repro.jobs import StreamedMatch
from repro.jobs.handle import match_json, match_line
from repro.joins.base import JoinMode, JoinSide, MatchEvent
from repro.server.wire import (
    error_body,
    job_status_body,
    render_metrics,
)


class _FakeTuple:
    ordinal = 0


def _event(similarity=0.91234, step=7):
    return MatchEvent(
        step=step,
        probe_side=JoinSide.LEFT,
        mode=JoinMode.APPROXIMATE,
        left=_FakeTuple(),
        right=_FakeTuple(),
        similarity=similarity,
        exact_value_match=False,
    )


class TestMatchLine:
    def test_is_the_cli_stream_line(self):
        match = StreamedMatch(3, 9, _event(), shard_id=1)
        line = match_line(3, 9, 0.91234, "approximate", 7, 1)
        assert line == (json.dumps(match.to_json()) + "\n").encode("utf-8")
        decoded = json.loads(line)
        assert decoded == {
            "left_index": 3,
            "right_index": 9,
            "similarity": 0.9123,
            "mode": "approximate",
            "step": 7,
            "shard": 1,
        }

    def test_unsharded_match_has_no_shard_key(self):
        match = StreamedMatch(3, 9, _event())
        line = match_line(3, 9, 0.91234, "approximate", 7)
        assert line == (json.dumps(match.to_json()) + "\n").encode("utf-8")
        assert "shard" not in json.loads(line)

    @pytest.mark.parametrize(
        "similarity", [1.0, 0.85, 1 / 3, 0.99995, 0.0, 0.123456789, 1]
    )
    @pytest.mark.parametrize("shard_id", [None, 0, 7])
    @pytest.mark.parametrize("mode", ["exact", "approximate"])
    def test_template_is_json_dumps_of_match_json(self, similarity, shard_id, mode):
        """The template writes exactly ``json.dumps(match_json(...))``:
        0.99995 rounds up to 1.0, 1/3 keeps four places, an int similarity
        stays an int, and ordinals past 2**32 print in full."""
        for left, right, step in ((0, 0, 0), (12, 3, 41), (2**33 + 5, 2**40, 2**35)):
            fields = (left, right, similarity, mode, step, shard_id)
            want = json.dumps(match_json(*fields)) + "\n"
            assert match_line(*fields) == want.encode("utf-8")

    def test_template_matches_json_dumps_on_random_fields(self):
        rng = random.Random(42)
        for _ in range(5000):
            fields = (
                rng.randrange(2**40),
                rng.randrange(2**40),
                rng.choice((rng.random(), round(rng.random(), 5), 1.0)),
                rng.choice(("exact", "approximate")),
                rng.randrange(2**40),
                rng.choice((None, rng.randrange(64))),
            )
            want = json.dumps(match_json(*fields)) + "\n"
            assert match_line(*fields) == want.encode("utf-8")

    def test_large_ordinals_and_rounding_read_back(self):
        line = match_line(2**33, 1, 0.99995, "approximate", 2**34, 7)
        assert json.loads(line) == {
            "left_index": 2**33,
            "right_index": 1,
            "similarity": 1.0,
            "mode": "approximate",
            "step": 2**34,
            "shard": 7,
        }


class TestBodies:
    def test_error_body(self):
        assert error_body("nope") == {"error": "nope"}

    def test_status_body_echoes_spec_subset(self):
        payload = {
            "strategy": "adaptive", "attribute": "location", "shards": 4,
            "backend": "serial", "partitioner": "hash", "policy": None,
            "left": {"columns": [], "rows": []},
        }
        body = job_status_body("job-1", "running", 2, payload)
        assert body["id"] == "job-1"
        assert body["state"] == "running"
        assert body["priority"] == 2
        assert body["spec"]["shards"] == 4
        # Inline tables never leak into the status body.
        assert "left" not in body["spec"]
        assert "progress" not in body
        assert "error" not in body

    def test_status_body_optional_fields(self):
        body = job_status_body(
            "job-2", "failed", 1, {}, result_size=None, error="boom"
        )
        assert body["error"] == "boom"
        assert "result_size" not in body


class TestMetrics:
    def test_sorted_name_value_lines(self):
        text = render_metrics({"b": 2, "a": 1})
        assert text == "a 1\nb 2\n"
