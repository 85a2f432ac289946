"""Tests for the JobStore backends: contract, JSONL replay, tolerance."""

import json

import pytest

from repro.core.thresholds import Thresholds
from repro.jobs import LinkageJob, normalize_payload
from repro.server.store import JobStore, JsonlJobStore


def _outcome(small_dataset, shards=2):
    handle = (
        LinkageJob.between(small_dataset.parent, small_dataset.child)
        .on("location")
        .thresholds(Thresholds(delta_adapt=25, window_size=25))
        .sharded(shards)
        .build()
    )
    handle.run()
    return handle.shard_outcomes[0]


@pytest.fixture
def store(tmp_path):
    backend = JsonlJobStore(str(tmp_path / "jobs.jsonl"))
    yield backend
    backend.close()


class TestContract:
    def test_the_default_store_keeps_nothing(self, small_dataset):
        base = JobStore()
        base.add_job("job-1", {"attribute": "location"})
        base.record_shard("job-1", _outcome(small_dataset))
        base.set_status("job-1", "finished")
        assert base.load() == []
        assert vars(base) == {}
        base.close()

    def test_round_trip(self, store, small_dataset):
        payload = {"attribute": "location", "shards": 2}
        outcome = _outcome(small_dataset)
        store.add_job("job-1", payload)
        store.record_shard("job-1", outcome)
        store.set_status("job-1", "finished")
        rows = store.load()
        assert len(rows) == 1
        row = rows[0]
        assert row.job_id == "job-1"
        assert row.payload == payload
        assert row.status == "finished"
        assert set(row.outcomes) == {outcome.shard_id}
        # Stores hand back the match columns, unbound to any plan.
        assert row.outcomes[outcome.shard_id].result == outcome.result

    def test_no_status_means_interrupted(self, store):
        store.add_job("job-1", {"attribute": "location"})
        assert store.load()[0].status is None

    def test_admission_order_is_preserved(self, store):
        for index in range(3):
            store.add_job(f"job-{index + 1}", {})
        assert [row.job_id for row in store.load()] == [
            "job-1",
            "job-2",
            "job-3",
        ]


class TestJsonlReplay:
    def test_survives_reopen(self, tmp_path, small_dataset):
        path = str(tmp_path / "jobs.jsonl")
        first = JsonlJobStore(path)
        first.add_job("job-1", {"attribute": "location"})
        first.record_shard("job-1", _outcome(small_dataset))
        first.close()
        second = JsonlJobStore(path)
        rows = second.load()
        assert rows[0].status is None
        assert len(rows[0].outcomes) == 1
        second.close()

    def test_missing_file_loads_empty(self, tmp_path):
        backend = JsonlJobStore(str(tmp_path / "never-written.jsonl"))
        # The constructor creates the file; point load at a fresh path.
        backend.path = str(tmp_path / "other.jsonl")
        assert backend.load() == []
        backend.close()

    def test_tolerates_truncated_last_line(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        lines = [
            json.dumps({"type": "job", "job": "job-1", "payload": {}}),
            json.dumps({"type": "status", "job": "job-1", "status": "finished"}),
        ]
        path.write_text("\n".join(lines) + "\n" + '{"type": "sta', encoding="utf-8")
        backend = JsonlJobStore(str(path))
        rows = backend.load()
        assert rows[0].status == "finished"
        backend.close()

    @pytest.mark.parametrize(
        "bad",
        [
            json.dumps({"type": "job", "job": "job-1"}).encode(),
            json.dumps({"type": "job", "job": ["x"], "payload": {}}).encode(),
            json.dumps({"type": "job", "job": "job-1", "payload": ["rows"]}).encode(),
            json.dumps({"type": "status", "job": "job-1"}).encode(),
            json.dumps({"type": "status", "job": "job-1", "status": 7}).encode(),
            json.dumps(
                {"type": "shard", "job": {"id": 1}, "shard": 0, "outcome": "AAAA"}
            ).encode(),
            b'\xff\xfe{"type": "status", "job": "job-1", "status": "failed"}',
            b"[1, 2]",
            b"null",
            b'"job-1"',
            b"   ",
            json.dumps({"type": "job", "payload": {}}).encode(),
            json.dumps({"type": "rerun", "job": "job-1"}).encode(),
            json.dumps({"type": "status", "job": "job-1", "status": None}).encode(),
            json.dumps(
                {"type": "shard", "job": "job-1", "shard": "0", "outcome": "AAAA"}
            ).encode(),
            json.dumps(
                {"type": "shard", "job": "job-2", "shard": 0, "outcome": "AAAA"}
            ).encode(),
            json.dumps({"type": "status", "job": "job-2", "status": "failed"}).encode(),
        ],
        ids=[
            "job-without-payload",
            "unhashable-job-id",
            "payload-not-an-object",
            "status-missing",
            "status-not-a-string",
            "unhashable-shard-job-id",
            "not-utf-8",
            "record-a-list",
            "record-null",
            "record-a-string",
            "blank",
            "job-id-missing",
            "unknown-type",
            "status-null",
            "shard-id-not-an-int",
            "shard-of-an-unknown-job",
            "status-of-an-unknown-job",
        ],
    )
    def test_skips_a_malformed_line(self, tmp_path, bad):
        path = tmp_path / "jobs.jsonl"
        records = [
            {"type": "job", "job": "job-1", "payload": {"attribute": "location"}},
            {"type": "status", "job": "job-1", "status": "finished"},
        ]
        path.write_bytes(
            "".join(json.dumps(record) + "\n" for record in records).encode()
            + bad + b"\n"
        )
        backend = JsonlJobStore(str(path))
        (row,) = backend.load()
        backend.close()
        assert row.job_id == "job-1"
        assert row.payload == {"attribute": "location"}
        assert row.status == "finished"
        assert row.outcomes == {}
        assert row.undecodable == set()

    def test_ignores_shard_lines_without_a_job_line(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(
            json.dumps({"type": "shard", "job": "ghost", "shard": 0,
                        "outcome": "AAAA"}) + "\n",
            encoding="utf-8",
        )
        backend = JsonlJobStore(str(path))
        assert backend.load() == []
        backend.close()

    def test_canonical_payload_round_trips_through_json(
        self, tmp_path, small_dataset
    ):
        # The payload written is the canonical form — exactly what a
        # restarted server feeds back into build_job.
        payload = normalize_payload(
            {
                "left": {
                    "columns": list(small_dataset.parent.schema.attributes),
                    "rows": [list(r.values) for r in small_dataset.parent],
                },
                "right": {
                    "columns": list(small_dataset.child.schema.attributes),
                    "rows": [list(r.values) for r in small_dataset.child],
                },
                "attribute": "location",
                "shards": 2,
            }
        )
        backend = JsonlJobStore(str(tmp_path / "jobs.jsonl"))
        backend.add_job("job-1", payload)
        backend.close()
        reread = JsonlJobStore(str(tmp_path / "jobs.jsonl"))
        assert normalize_payload(reread.load()[0].payload) == payload
        reread.close()
