"""Tests for the server's wire formats."""

import json

from repro.jobs import StreamedMatch
from repro.joins.base import JoinMode, JoinSide, MatchEvent
from repro.server.wire import error_body, job_status_body, match_line, render_metrics


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
