"""The scheduler's worker processes: cancel, shared memory, stop signals,
worker death, fork order, whole-unit jobs, and what a closed job keeps."""

import gc
import json
import os
import signal
import threading
import time
import types

import pytest

import repro.runtime.parallel as parallel_module
from repro.engine.table import Table
from repro.engine.tuples import Record
from repro.jobs import JobHandle, StreamedMatch, build_job, normalize_payload
from repro.joins.base import MatchEvent
from repro.runtime.handoff import live_block_count
from repro.runtime.sharding import ShardOutcome, ShardPlan
from repro.server import JobScheduler, JsonlJobStore

#: A payload whose second shard has an empty side, which the session
#: rejects: the job fails.
_FAILING_PAYLOAD = {
    "left": {"columns": ["row_id", "location"],
             "rows": [[0, "A B C"], [1, "D E F"]]},
    "right": {"columns": ["row_id", "location"],
              "rows": [[9, "A B C"]]},
    "attribute": "location",
    "shards": 2,
}


def _wait_state(scheduler, job_id, states, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = scheduler.describe(job_id)["state"]
        if state in states:
            return state
        time.sleep(0.005)
    raise AssertionError(f"{job_id} never reached {states}")


def _wait_terminal(scheduler, job_id):
    return _wait_state(scheduler, job_id, {"finished", "cancelled", "failed"})


def _lines(scheduler, job_id):
    return b"".join(scheduler.stream_matches(job_id)).decode("utf-8").splitlines()


def _reference_lines(payload):
    handle = build_job(normalize_payload(payload))
    return [json.dumps(match.to_json()) for match in handle.stream_matches()]


def _slow_scheduler(**options):
    """One worker whose shards take ~0.7 s each on the small dataset."""
    return JobScheduler(max_workers=1, shard_batch=8, shard_delay=0.02, **options)


class TestCancelInTheWorker:
    def test_mid_shard_cancel_keeps_the_partial_and_persists_nothing(
        self, tmp_path, small_payload
    ):
        path = str(tmp_path / "jobs.jsonl")
        scheduler = _slow_scheduler(store=JsonlJobStore(path))
        job_id = scheduler.submit(small_payload)
        _wait_state(scheduler, job_id, {"running"})
        time.sleep(0.3)  # shard 0 runs >= 0.66 s: sleeps alone are 33 x 0.02 s
        scheduler.cancel(job_id)
        assert _wait_terminal(scheduler, job_id) == "cancelled"
        body = scheduler.describe(job_id)
        lines = _lines(scheduler, job_id)
        scheduler.shutdown()

        (partial,) = body["statistics"]["per_shard"]
        assert partial["shard"] == 0
        assert 0 < partial["total_steps"]
        assert partial["total_steps"] < (
            partial["left_records"] + partial["right_records"]
        )
        # The partial shard's matches are kept: a prefix of the full feed.
        assert body["result_size"] == len(lines) > 0
        assert lines == _reference_lines(small_payload)[: len(lines)]
        # ... and nothing of it was persisted.
        (stored,) = JsonlJobStore(path).load()
        assert stored.status == "cancelled"
        assert stored.outcomes == {}

    def test_shutdown_mid_shard_resumes_bit_identically(
        self, tmp_path, small_payload
    ):
        path = str(tmp_path / "jobs.jsonl")
        scheduler = _slow_scheduler(store=JsonlJobStore(path))
        job_id = scheduler.submit(small_payload)
        _wait_state(scheduler, job_id, {"running"})
        time.sleep(0.3)
        scheduler.shutdown(timeout=30)
        (stored,) = JsonlJobStore(path).load()
        assert stored.status is None
        assert stored.outcomes == {}

        revived = JobScheduler(max_workers=2, store=JsonlJobStore(path))
        assert revived.restore() == [job_id]
        assert _wait_terminal(revived, job_id) == "finished"
        lines = _lines(revived, job_id)
        revived.shutdown()
        assert lines == _reference_lines(small_payload)


class TestSharedMemory:
    def test_a_running_job_holds_its_blocks_and_its_flag(self, small_payload):
        scheduler = _slow_scheduler()
        job_id = scheduler.submit(small_payload)
        _wait_state(scheduler, job_id, {"running"})
        # Two plan blocks plus the one-byte cancel flag.
        assert live_block_count() == 3
        scheduler.cancel(job_id)
        _wait_terminal(scheduler, job_id)
        assert live_block_count() == 0
        scheduler.shutdown()

    @pytest.mark.parametrize("ending", ["finish", "cancel", "failure", "shutdown"])
    def test_no_block_outlives_its_job(self, small_payload, ending):
        scheduler = _slow_scheduler()
        payload = _FAILING_PAYLOAD if ending == "failure" else small_payload
        job_id = scheduler.submit(payload)
        if ending in ("finish", "failure"):
            expected = "finished" if ending == "finish" else "failed"
            assert _wait_terminal(scheduler, job_id) == expected
        else:
            _wait_state(scheduler, job_id, {"running"})
            if ending == "cancel":
                scheduler.cancel(job_id)
                assert _wait_terminal(scheduler, job_id) == "cancelled"
        scheduler.shutdown()
        assert live_block_count() == 0


class TestStopSignals:
    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_a_signalled_worker_leaves_the_job_resumable(
        self, tmp_path, small_payload, signum
    ):
        """Ctrl-C and group-wide SIGTERMs reach the workers too.  A worker
        ignores SIGINT and dies of SIGTERM; either way the job keeps
        running, and the server's shutdown leaves it resumable."""
        path = str(tmp_path / "jobs.jsonl")
        scheduler = _slow_scheduler(store=JsonlJobStore(path))
        job_id = scheduler.submit(small_payload)
        _wait_state(scheduler, job_id, {"running"})
        time.sleep(0.3)  # mid-shard: shard 0 runs >= 0.66 s
        workers = list(scheduler._pool._executor._processes.values())
        for worker in workers:
            os.kill(worker.pid, signum)
        time.sleep(0.3)
        if signum == signal.SIGINT:
            assert all(worker.is_alive() for worker in workers)
        body = scheduler.describe(job_id)
        assert (body["state"], body.get("error")) == ("running", None)
        scheduler.shutdown(timeout=30)
        (stored,) = JsonlJobStore(path).load()
        assert stored.status is None

        revived = JobScheduler(max_workers=2, store=JsonlJobStore(path))
        assert revived.restore() == [job_id]
        assert _wait_terminal(revived, job_id) == "finished"
        lines = _lines(revived, job_id)
        revived.shutdown()
        assert lines == _reference_lines(small_payload)


def _kill_workers_mid_shard(scheduler, job_ids, previous_pool=None):
    """SIGKILL the pool's workers once every job has a shard in flight on
    an executor other than ``previous_pool``; returns the executor hit."""
    jobs = [scheduler._jobs[job_id] for job_id in job_ids]
    deadline = time.monotonic() + 30
    while True:
        pool = scheduler._pool._executor
        if pool is not previous_pool and all(job.running for job in jobs):
            break
        assert time.monotonic() < deadline, "the jobs never ran"
        time.sleep(0.005)
    for pid in list(pool._processes):
        os.kill(pid, signal.SIGKILL)
    return pool


class TestWorkerDeath:
    def test_lost_shards_rerun_and_no_job_fails(self, small_payload):
        """A dead worker breaks the whole pool: the shards in flight of
        both jobs are lost, re-run on a fresh pool, and both jobs finish
        with the reference feed."""
        scheduler = JobScheduler(max_workers=2, shard_batch=8, shard_delay=0.02)
        job_ids = [scheduler.submit(small_payload) for _ in range(2)]
        _kill_workers_mid_shard(scheduler, job_ids)
        for job_id in job_ids:
            assert _wait_terminal(scheduler, job_id) == "finished"
            assert _lines(scheduler, job_id) == _reference_lines(small_payload)
        scheduler.shutdown()
        assert live_block_count() == 0

    def test_a_shard_lost_twice_fails_its_job_and_the_next_one_runs(
        self, small_payload, tiny_payload
    ):
        scheduler = _slow_scheduler()
        job_id = scheduler.submit(small_payload)
        first = _kill_workers_mid_shard(scheduler, [job_id])
        _kill_workers_mid_shard(scheduler, [job_id], previous_pool=first)
        assert _wait_terminal(scheduler, job_id) == "failed"
        assert "BrokenProcessPool" in scheduler.describe(job_id)["error"]

        next_id = scheduler.submit(tiny_payload)
        assert _wait_terminal(scheduler, next_id) == "finished"
        assert _lines(scheduler, next_id) == _reference_lines(tiny_payload)
        scheduler.shutdown()
        assert live_block_count() == 0


class TestForkOrder:
    def test_workers_are_forked_before_any_scheduler_thread(self, monkeypatch):
        scheduler = JobScheduler(max_workers=2, autostart=False)
        forked_at_thread_start = []
        thread_start = threading.Thread.start

        def start(thread):
            if thread.name.startswith("linkage-worker"):
                pool = scheduler._pool._executor
                forked_at_thread_start.append(
                    len(pool._processes) if pool is not None else 0
                )
            thread_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        scheduler.start()
        monkeypatch.undo()
        try:
            assert forked_at_thread_start == [2, 2]
            executor = scheduler._pool._executor
            assert executor._mp_context.get_start_method() == "fork"
        finally:
            scheduler.shutdown()


class TestWholeUnitJobs:
    def test_a_failure_policy_job_runs_on_the_scheduler_pool(
        self, small_payload, monkeypatch
    ):
        """A whole-unit ``process``-backend job submits its shards to the
        scheduler's pool and forks no pool of its own."""
        serial = dict(small_payload, on_failure="retry")
        reference = build_job(normalize_payload(serial)).run().pairs

        def no_library_pool(workers):
            raise AssertionError("a server job asked for the library pool")

        monkeypatch.setattr(parallel_module, "shared_pool", no_library_pool)
        payload = dict(serial, backend="process")
        scheduler = JobScheduler(max_workers=2)
        submitted = []
        submit = scheduler._pool.submit

        def spy(fn, *args):
            submitted.append(fn.__name__)
            return submit(fn, *args)

        monkeypatch.setattr(scheduler._pool, "submit", spy)
        try:
            job_id = scheduler.submit(payload)
            assert _wait_terminal(scheduler, job_id) == "finished"
            lines = _lines(scheduler, job_id)
        finally:
            scheduler.shutdown()
        assert submitted.count("_run_shard_task") == payload["shards"]
        pairs = [json.loads(line) for line in lines]
        assert [(p["left_index"], p["right_index"]) for p in pairs] == reference


#: Types a closed job must no longer reach.
_LIVE_TYPES = (JobHandle, ShardPlan, ShardOutcome, StreamedMatch, MatchEvent,
               Record, Table)


def _reachable(root):
    """Every object reachable from ``root`` through data references
    (classes, modules and functions are not followed)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestCompaction:
    def test_feed_is_the_cli_bytes_during_after_and_across_restart(
        self, tmp_path, small_payload
    ):
        reference = _reference_lines(small_payload)
        path = str(tmp_path / "jobs.jsonl")
        scheduler = JobScheduler(
            max_workers=2, store=JsonlJobStore(path), shard_delay=0.005
        )
        job_id = scheduler.submit(small_payload)
        during = _lines(scheduler, job_id)
        assert _wait_terminal(scheduler, job_id) == "finished"
        after = _lines(scheduler, job_id)
        scheduler.shutdown()
        revived = JobScheduler(max_workers=1, store=JsonlJobStore(path))
        assert revived.restore() == []
        restarted = _lines(revived, job_id)
        revived_job = revived._jobs[job_id]
        revived.shutdown()
        assert during == after == restarted == reference
        assert isinstance(revived_job.feed, bytes)

    @pytest.mark.parametrize("ending", ["finished", "cancelled", "failed"])
    def test_a_closed_job_reaches_no_live_objects(self, small_payload, ending):
        scheduler = JobScheduler(max_workers=2)
        payload = _FAILING_PAYLOAD if ending == "failed" else small_payload
        job_id = scheduler.submit(payload)
        if ending == "cancelled":
            scheduler.cancel(job_id)
        assert _wait_terminal(scheduler, job_id) == ending
        body = scheduler.describe(job_id)
        job = scheduler._jobs[job_id]
        scheduler.shutdown()
        leaked = [
            type(obj).__name__
            for obj in _reachable(job)
            if isinstance(obj, _LIVE_TYPES)
        ]
        assert leaked == []
        assert "left" not in body["spec"]
        if ending != "failed":
            assert body["result_size"] == len(job.feed.splitlines())
