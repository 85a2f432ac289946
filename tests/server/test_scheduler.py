"""Tests for the fair-share scheduler: dispatch order, caps, cancel, streams."""

import json
import threading
import time

import pytest

from repro.jobs import build_job, normalize_payload
from repro.server import (
    JobScheduler,
    MatchesUnavailable,
    QueueFull,
    UnknownJob,
)


def _wait_terminal(scheduler, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = scheduler.describe(job_id)["state"]
        if state in ("finished", "cancelled", "failed"):
            return state
        time.sleep(0.01)
    raise AssertionError(f"{job_id} never reached a terminal state")


def _reference_lines(payload):
    handle = build_job(normalize_payload(payload))
    return [json.dumps(match.to_json()) for match in handle.stream_matches()]


def _lines(scheduler, job_id):
    """The scheduler's NDJSON feed for ``job_id``, split into lines."""
    return b"".join(scheduler.stream_matches(job_id)).decode("utf-8").splitlines()


class TestValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="max_workers"):
            JobScheduler(max_workers=0, autostart=False)

    def test_rejects_bad_queue_cap(self):
        with pytest.raises(ValueError, match="max_queued"):
            JobScheduler(max_queued=0, autostart=False)

    def test_unknown_job_everywhere(self, tiny_payload):
        scheduler = JobScheduler(autostart=False)
        with pytest.raises(UnknownJob):
            scheduler.describe("job-404")
        with pytest.raises(UnknownJob):
            scheduler.cancel("job-404")
        with pytest.raises(UnknownJob):
            next(scheduler.stream_matches("job-404"), None)
        scheduler.shutdown()


class TestAdmission:
    def test_queue_depth_cap(self, tiny_payload):
        scheduler = JobScheduler(autostart=False, max_queued=2)
        scheduler.submit(tiny_payload)
        scheduler.submit(tiny_payload)
        with pytest.raises(QueueFull, match="queue depth cap"):
            scheduler.submit(tiny_payload)
        scheduler.shutdown()

    def test_terminal_jobs_free_queue_slots(self, tiny_payload):
        scheduler = JobScheduler(max_workers=1, max_queued=2)
        first = scheduler.submit(tiny_payload)
        _wait_terminal(scheduler, first)
        scheduler.submit(tiny_payload)
        scheduler.submit(tiny_payload)  # the finished job no longer counts
        scheduler.shutdown()

    def test_ids_are_sequential(self, tiny_payload):
        scheduler = JobScheduler(autostart=False, max_queued=10)
        ids = [scheduler.submit(tiny_payload) for _ in range(3)]
        assert ids == ["job-1", "job-2", "job-3"]
        assert scheduler.job_ids() == ids
        scheduler.shutdown()

    def test_plan_is_built_outside_the_lock(self, small_payload, monkeypatch):
        """Admission builds the shard plan before taking the lock that
        every worker thread's fold and dispatch waits on."""
        from repro.jobs.builder import JobSpec

        scheduler = JobScheduler(autostart=False)
        free = []
        build = JobSpec.shard_plan

        def probe():
            # From another thread, so a re-entrant lock cannot fool it.
            acquired = scheduler._cond.acquire(blocking=False)
            if acquired:
                scheduler._cond.release()
            free.append(acquired)

        def probed(spec):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
            return build(spec)

        monkeypatch.setattr(JobSpec, "shard_plan", probed)
        try:
            scheduler.submit(small_payload)
        finally:
            scheduler.shutdown()
        assert free == [True]

    def test_submit_normalises_the_payload_once(self, tiny_payload, monkeypatch):
        from repro.jobs import serialization

        sides = []
        normalize_side = serialization._normalize_side

        def counted(payload, side):
            sides.append(side)
            return normalize_side(payload, side)

        monkeypatch.setattr(serialization, "_normalize_side", counted)
        scheduler = JobScheduler(autostart=False)
        try:
            scheduler.submit(tiny_payload)
        finally:
            scheduler.shutdown()
        assert sides == ["left", "right"]

    def test_queued_state_before_start(self, tiny_payload):
        scheduler = JobScheduler(autostart=False)
        job_id = scheduler.submit(tiny_payload)
        assert scheduler.describe(job_id)["state"] == "queued"
        scheduler.shutdown()


class TestFairShare:
    def test_priority_order_under_one_worker(self, tiny_payload):
        """Queued jobs with one worker start in weight order, and every
        one of them completes (no starvation)."""
        order = []
        scheduler = JobScheduler(
            max_workers=1,
            max_queued=10,
            autostart=False,
            on_shard_complete=lambda job_id, shard: order.append(job_id),
        )
        ids = {}
        for priority in (1, 3, 2):
            payload = dict(tiny_payload)
            payload["priority"] = priority
            ids[priority] = scheduler.submit(payload)
        scheduler.start()
        for job_id in ids.values():
            assert _wait_terminal(scheduler, job_id) == "finished"
        # All zero virtual time at start: ties break by higher weight.
        assert order == [ids[3], ids[2], ids[1]]
        scheduler.shutdown()

    def test_weighted_interleaving_charges_cost(self, small_payload):
        """With equal priorities, dispatch rotates across jobs (each
        charge raises the job's virtual time above the others')."""
        order = []
        scheduler = JobScheduler(
            max_workers=1,
            max_queued=10,
            autostart=False,
            on_shard_complete=lambda job_id, shard: order.append(job_id),
        )
        first = scheduler.submit(small_payload)
        second = scheduler.submit(small_payload)
        scheduler.start()
        _wait_terminal(scheduler, first)
        _wait_terminal(scheduler, second)
        shards = small_payload["shards"]
        assert order.count(first) == shards
        assert order.count(second) == shards
        # Equal cost per shard and equal weight → strict alternation.
        assert order[:4] == [first, second, first, second]
        scheduler.shutdown()

    def test_high_priority_job_gets_more_shards_early(self, small_payload):
        heavy = dict(small_payload)
        heavy["priority"] = 3
        order = []
        scheduler = JobScheduler(
            max_workers=1,
            max_queued=10,
            autostart=False,
            on_shard_complete=lambda job_id, shard: order.append(job_id),
        )
        light_id = scheduler.submit(small_payload)
        heavy_id = scheduler.submit(heavy)
        scheduler.start()
        _wait_terminal(scheduler, light_id)
        _wait_terminal(scheduler, heavy_id)
        # The weight-3 job runs all of its shards before the weight-1
        # job's second shard is dispatched (virtual time 3c/3 = c vs c/1).
        first_heavy_burst = order[: small_payload["shards"] + 1]
        assert first_heavy_burst.count(heavy_id) == small_payload["shards"]
        assert order.count(light_id) == small_payload["shards"]
        scheduler.shutdown()


class TestStreaming:
    def test_sharded_stream_matches_cli_bytes(self, small_payload):
        scheduler = JobScheduler(max_workers=3)
        job_id = scheduler.submit(small_payload)
        lines = _lines(scheduler, job_id)
        assert lines == _reference_lines(small_payload)
        scheduler.shutdown()

    def test_unsharded_stream_has_no_shard_key(self, tiny_payload):
        scheduler = JobScheduler(max_workers=1)
        job_id = scheduler.submit(tiny_payload)
        lines = _lines(scheduler, job_id)
        assert lines == _reference_lines(tiny_payload)
        assert all('"shard"' not in line for line in lines)
        scheduler.shutdown()

    def test_two_readers_see_identical_streams(self, small_payload):
        scheduler = JobScheduler(max_workers=2)
        job_id = scheduler.submit(small_payload)
        results = {}

        def read(name):
            results[name] = _lines(scheduler, job_id)

        threads = [
            threading.Thread(target=read, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert results["a"] == results["b"]
        assert len(results["a"]) > 0
        scheduler.shutdown()

    def test_late_reader_gets_the_full_stream(self, small_payload):
        scheduler = JobScheduler(max_workers=2)
        job_id = scheduler.submit(small_payload)
        _wait_terminal(scheduler, job_id)
        lines = _lines(scheduler, job_id)
        assert lines == _reference_lines(small_payload)
        scheduler.shutdown()

    def test_baseline_jobs_have_no_feed(self, tiny_payload):
        payload = dict(tiny_payload)
        payload["strategy"] = "exact"
        del payload["thresholds"]
        scheduler = JobScheduler(max_workers=1)
        job_id = scheduler.submit(payload)
        assert _wait_terminal(scheduler, job_id) == "finished"
        with pytest.raises(MatchesUnavailable, match="exact"):
            next(scheduler.stream_matches(job_id), None)
        body = scheduler.describe(job_id)
        assert body["result_size"] > 0
        scheduler.shutdown()

    def test_whole_unit_job_streams_after_completion(self, small_payload):
        # A failure-policy job runs as one unit; its feed fills when it
        # completes and is still byte-identical to the plain stream.
        payload = dict(small_payload)
        payload["on_failure"] = {"policy": "retry", "retries": 1}
        scheduler = JobScheduler(max_workers=1)
        job_id = scheduler.submit(payload)
        lines = _lines(scheduler, job_id)
        assert lines == _reference_lines(small_payload)
        scheduler.shutdown()


class TestCancel:
    def test_cancel_queued_job_before_start(self, tiny_payload):
        scheduler = JobScheduler(autostart=False)
        job_id = scheduler.submit(tiny_payload)
        state = scheduler.cancel(job_id)
        assert state == "cancelled"
        body = scheduler.describe(job_id)
        assert body["state"] == "cancelled"
        assert body["result_size"] == 0
        scheduler.shutdown()

    def test_cancel_mid_run_keeps_partial_result(self, small_payload):
        scheduler = JobScheduler(max_workers=1, shard_delay=0.01, shard_batch=8)
        job_id = scheduler.submit(small_payload)
        deadline = time.monotonic() + 10
        while scheduler.describe(job_id)["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        scheduler.cancel(job_id)
        state = _wait_terminal(scheduler, job_id)
        assert state == "cancelled"
        full = len(_reference_lines(small_payload))
        streamed = len(_lines(scheduler, job_id))
        assert streamed < full
        scheduler.shutdown()

    def test_cancel_racing_the_last_shard_closes_the_job_once(self, tiny_payload):
        """A DELETE that arrives while the last shard's completion is
        merging must not merge a second time (it used to, and the second
        ``finish_external`` raised)."""
        scheduler = JobScheduler(max_workers=1, autostart=False)
        job_id = scheduler.submit(tiny_payload)
        handle = scheduler._jobs[job_id].handle
        finish_external = handle.finish_external
        merges = []

        def finish_with_a_racing_cancel():
            merges.append(job_id)
            if len(merges) == 1:
                # The cancel lands between the closer's state check and
                # its merge: exactly the window the race needed.
                scheduler.cancel(job_id)
            return finish_external()

        handle.finish_external = finish_with_a_racing_cancel
        scheduler.start()
        assert _wait_terminal(scheduler, job_id) == "finished"
        assert merges == [job_id]
        assert scheduler.counters()["jobs_finished"] == 1
        assert scheduler.counters()["jobs_cancelled"] == 0
        scheduler.shutdown()

    def test_cancel_is_idempotent(self, tiny_payload):
        scheduler = JobScheduler(max_workers=1)
        job_id = scheduler.submit(tiny_payload)
        _wait_terminal(scheduler, job_id)
        assert scheduler.cancel(job_id) == "finished"
        scheduler.shutdown()


class TestFailure:
    def test_failed_job_reports_error(self):
        # Two left rows hashed into 2 shards can leave one side of a
        # shard empty, which the session rejects — the job must land in
        # 'failed' with the error surfaced, exactly like the CLI run.
        payload = {
            "left": {"columns": ["row_id", "location"],
                     "rows": [[0, "A B C"], [1, "D E F"]]},
            "right": {"columns": ["row_id", "location"],
                      "rows": [[9, "A B C"]]},
            "attribute": "location",
            "shards": 2,
        }
        scheduler = JobScheduler(max_workers=2)
        job_id = scheduler.submit(payload)
        assert _wait_terminal(scheduler, job_id) == "failed"
        body = scheduler.describe(job_id)
        assert "error" in body
        with pytest.raises(MatchesUnavailable, match="failed"):
            next(scheduler.stream_matches(job_id), None)
        assert scheduler.counters()["jobs_failed"] == 1
        scheduler.shutdown()


class TestMetrics:
    def test_counters_track_lifecycle(self, tiny_payload):
        scheduler = JobScheduler(max_workers=1)
        job_id = scheduler.submit(tiny_payload)
        _wait_terminal(scheduler, job_id)
        counters = scheduler.counters()
        assert counters["jobs_submitted"] == 1
        assert counters["jobs_finished"] == 1
        assert counters["jobs_open"] == 0
        assert counters["shards_completed"] == 1
        scheduler.shutdown()
