"""Tests that a disk-backed scheduler survives restarts bit-identically."""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.jobs import build_job, normalize_payload
from repro.server import JobScheduler, JsonlJobStore, LinkageServer


_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _job(job_id, payload):
    return {"type": "job", "job": job_id, "payload": payload}


def _status(job_id, status):
    return {"type": "status", "job": job_id, "status": status}


def _exact_payload(payload):
    """``payload`` as a baseline (exact) job: it runs whole, no thresholds."""
    baseline = dict(payload, strategy="exact")
    del baseline["thresholds"]
    return baseline


def _write_store(tmp_path, *records):
    """A JSONL job store written by hand, record by record."""
    path = tmp_path / "jobs.jsonl"
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records),
        encoding="utf-8",
    )
    return str(path)


def _wait_terminal(scheduler, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = scheduler.describe(job_id)["state"]
        if state in ("finished", "cancelled", "failed"):
            return state
        time.sleep(0.01)
    raise AssertionError(f"{job_id} never reached a terminal state")


def _lines(scheduler, job_id):
    return b"".join(scheduler.stream_matches(job_id)).decode("utf-8").splitlines()


def _reference_lines(payload):
    handle = build_job(normalize_payload(payload))
    return [json.dumps(match.to_json()) for match in handle.stream_matches()]


def _interrupt_after_first_shard(path, payload):
    """Run ``payload`` against ``path`` and shut down mid-job.

    Returns once the store holds the job line, at least one complete
    shard outcome, and **no** terminal status.
    """
    first_shard = threading.Event()
    scheduler = JobScheduler(
        max_workers=1,
        store=JsonlJobStore(path),
        shard_batch=16,
        shard_delay=0.01,
        on_shard_complete=lambda job_id, shard: first_shard.set(),
    )
    job_id = scheduler.submit(payload)
    assert first_shard.wait(timeout=30)
    scheduler.shutdown(timeout=30)
    outcomes = JsonlJobStore(path).load()[0].outcomes
    assert 1 <= len(outcomes) < payload["shards"]
    return job_id, set(outcomes)


class TestRestartResume:
    def test_interrupted_job_resumes_bit_identically(
        self, tmp_path, small_payload
    ):
        path = str(tmp_path / "jobs.jsonl")
        job_id, _ = _interrupt_after_first_shard(path, small_payload)

        revived = JobScheduler(max_workers=2, store=JsonlJobStore(path))
        assert revived.restore() == [job_id]
        assert revived.counters()["jobs_resumed"] == 1
        assert _wait_terminal(revived, job_id) == "finished"
        body = revived.describe(job_id)
        assert body["statistics"]["resumed"] is True
        lines = _lines(revived, job_id)
        revived.shutdown()

        # The resumed stream is the uninterrupted run's stream, exactly.
        assert lines == _reference_lines(small_payload)
        # And the resume persisted only the shards that were missing.
        outcomes = JsonlJobStore(path).load()[0].outcomes
        assert set(outcomes) == set(range(small_payload["shards"]))

    def test_second_restart_replays_without_rerunning(
        self, tmp_path, small_payload
    ):
        path = str(tmp_path / "jobs.jsonl")
        job_id, _ = _interrupt_after_first_shard(path, small_payload)
        revived = JobScheduler(max_workers=2, store=JsonlJobStore(path))
        revived.restore()
        _wait_terminal(revived, job_id)
        revived.shutdown()

        replayed = JobScheduler(max_workers=2, store=JsonlJobStore(path))
        assert replayed.restore() == []  # finished on disk: nothing to run
        body = replayed.describe(job_id)
        assert body["state"] == "finished"
        assert _lines(replayed, job_id) == _reference_lines(small_payload)
        replayed.shutdown()

    def test_interrupted_baseline_reruns_whole(self, tmp_path, tiny_payload):
        payload = dict(tiny_payload)
        payload["strategy"] = "exact"
        del payload["thresholds"]
        path = str(tmp_path / "jobs.jsonl")
        stalled = JobScheduler(
            max_workers=1, store=JsonlJobStore(path), autostart=False
        )
        job_id = stalled.submit(payload)
        stalled.shutdown()  # never ran: job line on disk, no status

        revived = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        assert revived.restore() == [job_id]
        assert _wait_terminal(revived, job_id) == "finished"
        assert revived.describe(job_id)["result_size"] > 0
        revived.shutdown()

    def test_a_bogus_stored_status_counts_as_missing(self, tmp_path, tiny_payload):
        """Only a terminal status closes a stored job; any other status
        is no status, so the job is resumed."""
        path = _write_store(
            tmp_path, _job("job-1", tiny_payload), _status("job-1", "bogus")
        )
        (stored,) = JsonlJobStore(path).load()
        assert stored.status is None
        revived = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        try:
            assert revived.restore() == ["job-1"]
            assert _wait_terminal(revived, "job-1") == "finished"
            assert _lines(revived, "job-1") == _reference_lines(tiny_payload)
        finally:
            revived.shutdown()

    def test_cancelled_job_stays_cancelled_after_restart(
        self, tmp_path, tiny_payload
    ):
        path = str(tmp_path / "jobs.jsonl")
        scheduler = JobScheduler(
            max_workers=1, store=JsonlJobStore(path), autostart=False
        )
        job_id = scheduler.submit(tiny_payload)
        scheduler.cancel(job_id)
        scheduler.shutdown()

        revived = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        assert revived.restore() == []  # a deliberate cancel is terminal
        assert revived.describe(job_id)["state"] == "cancelled"
        revived.shutdown()

    def test_terminal_baselines_report_their_stored_state(
        self, tmp_path, tiny_payload
    ):
        """A restored finished or cancelled baseline is listed as it ended,
        not as its rebuilt (never-run) handle's ``pending``."""
        path = _write_store(
            tmp_path,
            _job("job-1", _exact_payload(tiny_payload)),
            _status("job-1", "finished"),
            _job("job-2", _exact_payload(tiny_payload)),
            _status("job-2", "cancelled"),
        )
        expected = {"job-1": "finished", "job-2": "cancelled"}
        revived = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        assert revived.restore() == []
        server = LinkageServer(scheduler=revived).start()
        try:
            for job_id, state in expected.items():
                assert revived.describe(job_id)["state"] == state
                assert revived.cancel(job_id) == state  # no-op on ended jobs
            url = f"{server.url}/jobs"
            with urllib.request.urlopen(url, timeout=30) as response:
                listing = json.loads(response.read().decode("utf-8"))
            assert {job["id"]: job["state"] for job in listing["jobs"]} == expected
        finally:
            server.shutdown()

    def test_restored_ids_never_collide_with_new_ones(
        self, tmp_path, tiny_payload
    ):
        path = str(tmp_path / "jobs.jsonl")
        first = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        _wait_terminal(first, first.submit(tiny_payload))
        _wait_terminal(first, first.submit(tiny_payload))
        first.shutdown()

        revived = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        revived.restore()
        fresh_id = revived.submit(tiny_payload)
        assert fresh_id == "job-3"
        assert revived.job_ids() == ["job-1", "job-2", "job-3"]
        revived.shutdown()

    @pytest.mark.parametrize(
        "key, removed",
        [
            pytest.param("backend", name, id=name)
            for name in ("thread", "async")
        ] + [
            pytest.param("partitioner", name, id=name)
            for name in ("gram", "round-robin", "range")
        ],
    )
    def test_stored_job_naming_a_removed_backend_is_skipped(
        self, tmp_path, tiny_payload, key, removed
    ):
        """A store written by an older server may name a backend or a
        partitioner that no longer exists: that job is skipped and
        reported, the rest restore."""
        path = _write_store(
            tmp_path,
            _job("job-1", _exact_payload(tiny_payload)),
            _status("job-1", "finished"),
            _job("job-2", dict(tiny_payload, shards=2, **{key: removed})),
        )

        revived = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        assert revived.restore() == []  # the stale job is not re-run
        assert list(revived.unrestorable) == ["job-2"]
        assert repr(removed) in revived.unrestorable["job-2"]
        assert revived.job_ids() == ["job-1"]
        # The valid job is restored as terminal: listed, never re-queued.
        assert revived.describe("job-1")["state"] not in ("queued", "running")
        assert revived.counters()["jobs_resumed"] == 0
        # New ids continue past the skipped one, so the log stays unambiguous.
        assert revived.submit(tiny_payload) == "job-3"
        revived.shutdown()

    def test_pending_job_beside_a_stale_one_still_resumes(
        self, tmp_path, tiny_payload
    ):
        path = _write_store(
            tmp_path,
            _job("job-1", dict(tiny_payload, shards=2, backend="async")),
            _job("job-2", _exact_payload(tiny_payload)),  # never ran
        )
        revived = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        assert revived.restore() == ["job-2"]
        assert _wait_terminal(revived, "job-2") == "finished"
        assert revived.describe("job-2")["result_size"] > 0
        assert list(revived.unrestorable) == ["job-1"]
        revived.shutdown()

    def test_every_stale_job_is_reported_in_store_order(
        self, tmp_path, tiny_payload
    ):
        path = _write_store(
            tmp_path,
            _job("job-1", dict(tiny_payload, shards=2, backend="async")),
            _job("job-2", _exact_payload(tiny_payload)),
            _status("job-2", "finished"),
            _job("job-3", dict(tiny_payload, shards=3, backend="thread")),
            _status("job-3", "finished"),
        )
        revived = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        assert revived.restore() == []
        assert list(revived.unrestorable) == ["job-1", "job-3"]
        assert "async" in revived.unrestorable["job-1"]
        assert "thread" in revived.unrestorable["job-3"]
        assert revived.job_ids() == ["job-2"]
        assert revived.submit(tiny_payload) == "job-4"
        revived.shutdown()

    def test_skipped_job_stays_skipped_across_restarts(
        self, tmp_path, tiny_payload
    ):
        path = _write_store(
            tmp_path,
            _job("job-1", dict(tiny_payload, shards=2, backend="thread")),
        )
        first = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        first.restore()
        fresh = first.submit(tiny_payload)
        assert fresh == "job-2"
        _wait_terminal(first, fresh)
        first.shutdown()

        second = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        assert second.restore() == []
        assert list(second.unrestorable) == ["job-1"]
        assert second.job_ids() == ["job-2"]
        assert second.describe("job-2")["state"] == "finished"
        assert second.submit(tiny_payload) == "job-3"
        second.shutdown()

    def test_repro_serve_reports_skipped_jobs_and_keeps_serving(
        self, tmp_path, tiny_payload
    ):
        path = _write_store(
            tmp_path,
            _job("job-1", _exact_payload(tiny_payload)),
            _status("job-1", "finished"),
            _job("job-2", dict(tiny_payload, shards=2, backend="async")),
        )
        env = dict(os.environ, PYTHONPATH=_SRC)
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--store", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            assert server.stdout.readline().startswith("serving on http://")
            server.send_signal(signal.SIGTERM)
            _, stderr = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0
        assert f"restored 1 job(s) from {path}" in stderr
        assert "skipped stored job job-2: " in stderr
        assert "async" in stderr.split("skipped stored job job-2: ", 1)[1]


def _load(path):
    store = JsonlJobStore(str(path))
    try:
        return store.load()
    finally:
        store.close()


class TestTornStore:
    """A crash can cut the log at any byte: loading never fails, and what
    survives restores to the CLI's feed."""

    def test_any_cut_loads_and_restores_to_the_cli_feed(
        self, tmp_path, small_payload
    ):
        path = str(tmp_path / "jobs.jsonl")
        writer = JobScheduler(max_workers=2, store=JsonlJobStore(path))
        job_id = writer.submit(small_payload)
        assert _wait_terminal(writer, job_id) == "finished"
        writer.shutdown()
        data = Path(path).read_bytes()
        assert data.count(b"\n") == 2 + small_payload["shards"]
        ends = [i for i, byte in enumerate(data) if byte == ord("\n")]
        starts = [0] + [end + 1 for end in ends]
        records = [json.loads(line) for line in data.splitlines()]
        shard_order = [r["shard"] for r in records if r["type"] == "shard"]

        seeded = random.Random(41)
        cuts = {
            min(max(start + delta, 0), len(data))
            for start in starts
            for delta in range(-3, 10)
        }
        cuts.update(seeded.randrange(len(data) + 1) for _ in range(50))
        torn = tmp_path / "torn.jsonl"
        for cut in sorted(cuts):
            torn.write_bytes(data[:cut])
            rows = _load(torn)
            # A record counts once its JSON is complete, newline or not.
            whole = sum(end <= cut for end in ends)
            if whole == 0:
                assert rows == [], cut
                continue
            (row,) = rows
            assert set(row.outcomes) == set(shard_order[: whole - 1]), cut
            assert row.undecodable == set(), cut
            assert row.status == ("finished" if whole == len(ends) else None), cut

        reference = _reference_lines(small_payload)
        restored = [starts[1] + 5, starts[2], starts[2] + 7, starts[3] - 1,
                    starts[4] + 2, starts[5] - 1, len(data)]
        for cut in restored:
            torn.write_bytes(data[:cut])
            revived = JobScheduler(max_workers=2, store=JsonlJobStore(str(torn)))
            try:
                revived.restore()
                assert _wait_terminal(revived, job_id) == "finished", cut
                assert _lines(revived, job_id) == reference, cut
            finally:
                revived.shutdown()
            # The shards the revived server appended survive the next
            # restart, even after a torn last line, and so does the status
            # it derived when every shard was already on disk.
            (row,) = _load(torn)
            assert set(row.outcomes) == set(shard_order), cut
            assert row.status == "finished", cut
