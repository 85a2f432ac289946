"""The server side of the match-columns boundary.

Shard results reach the scheduler, its job store and its NDJSON feed as
match columns; these tests pin what that buys and what it must not
break:

* a server job builds no ``MatchEvent`` in the server process;
* a shard line the store cannot decode (an older build's pickled
  outcome, corrupt base64) is re-run on restore, never fatal;
* the default store keeps nothing, so a server on it grows no faster
  than one on a JSONL store;
* pool workers exit on their own when the server is killed outright.
"""

from __future__ import annotations

import base64
import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

from repro.engine.tuples import Record
from repro.jobs import build_job, encode_shard_outcome, normalize_payload
from repro.joins.base import MatchEvent, StoredTuple
from repro.runtime.session import JoinSession
from repro.runtime.shard_result import ShardResult
from repro.runtime.sharding import ShardOutcome, ShardPlan
from repro.server import JobScheduler, JobStore, JsonlJobStore

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _wait_terminal(scheduler, job_id, timeout=60.0):
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


def _plan_of(payload) -> ShardPlan:
    spec = build_job(normalize_payload(payload)).spec
    return ShardPlan.build(
        spec.left, spec.right, spec.attribute, spec.shards, spec.partitioner,
        config=spec.run_config, handoff=spec.handoff,
    )


def _session_result(plan, shard_id, payload):
    config = build_job(normalize_payload(payload)).spec.run_config
    left, right = plan.shard_streams(shard_id)
    return JoinSession(left, right, plan.attribute, config).run()


def test_a_server_job_builds_no_event_in_the_server(monkeypatch, small_payload):
    reference = _reference_lines(small_payload)
    counts = {"events": 0}
    original = MatchEvent.__new__

    def counting_new(cls, *args, **kwargs):
        counts["events"] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(MatchEvent, "__new__", staticmethod(counting_new))
    scheduler = JobScheduler(max_workers=2)
    try:
        job_id = scheduler.submit(small_payload)
        assert _wait_terminal(scheduler, job_id) == "finished"
        lines = _lines(scheduler, job_id)
    finally:
        scheduler.shutdown()
    assert lines == reference
    assert counts["events"] == 0


class TestUndecodableShardLines:
    def _store_with_bad_lines(self, tmp_path, payload):
        """A finished 3-shard job on disk: shard 0 as an older build wrote
        it (a pickled outcome holding session events), shard 1 corrupt,
        shard 2 in the current format."""
        plan = _plan_of(payload)
        old_style = ShardOutcome(
            shard_id=0,
            result=_session_result(plan, 0, payload),
            left_origins=plan.left_shards[0].origins,
            right_origins=plan.right_shards[0].origins,
            wall_seconds=0.1,
        )
        current = ShardOutcome.of(
            plan, 2, ShardResult.from_session(_session_result(plan, 2, payload))
        )
        records = [
            {"type": "job", "job": "job-1", "payload": normalize_payload(payload)},
            {"type": "shard", "job": "job-1", "shard": 0, "outcome": base64.b64encode(
                pickle.dumps(old_style)).decode("ascii")},
            {"type": "shard", "job": "job-1", "shard": 1, "outcome": "@@not-base64@@"},
            {"type": "shard", "job": "job-1", "shard": 2,
             "outcome": encode_shard_outcome(current)},
            {"type": "status", "job": "job-1", "status": "finished"},
        ]
        path = tmp_path / "jobs.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    def test_load_lists_them_and_goes_on(self, tmp_path, small_payload):
        path = self._store_with_bad_lines(tmp_path, small_payload)
        (stored,) = JsonlJobStore(path).load()
        assert stored.status == "finished"
        assert set(stored.outcomes) == {2}
        assert stored.undecodable == {0, 1}

    def test_restore_reruns_them_and_the_feed_is_the_cli_bytes(
        self, tmp_path, small_payload
    ):
        path = self._store_with_bad_lines(tmp_path, small_payload)
        scheduler = JobScheduler(max_workers=2, store=JsonlJobStore(path))
        try:
            assert scheduler.restore() == ["job-1"]
            assert _wait_terminal(scheduler, "job-1") == "finished"
            lines = _lines(scheduler, "job-1")
        finally:
            scheduler.shutdown()
        assert lines == _reference_lines(small_payload)
        (stored,) = JsonlJobStore(path).load()
        assert set(stored.outcomes) == {0, 1, 2}
        assert stored.undecodable == set()
        assert stored.status == "finished"


def _reachable(root):
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


_RSS_SCRIPT = """\
import gc, os, sys, tempfile, time
from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case
from repro.server import JobScheduler, JsonlJobStore

def rss_mib():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

def inline(table):
    return {"columns": list(table.schema.attributes),
            "rows": [list(record.values) for record in table]}

dataset = generate_test_case(
    STANDARD_TEST_CASES["uniform_child"], parent_size=1000, child_size=1000
)
payload = {"left": inline(dataset.parent), "right": inline(dataset.child),
           "attribute": "location", "shards": 2}
work = tempfile.mkdtemp()
store = JsonlJobStore(os.path.join(work, "jobs.jsonl")) if sys.argv[1] == "jsonl" else None
scheduler = JobScheduler(max_workers=2, store=store)

def run(jobs):
    for _ in range(jobs):
        job_id = scheduler.submit(payload)
        for _ in scheduler.stream_matches(job_id):
            pass

run(3)
gc.collect()
before = rss_mib()
run(40)
gc.collect()
after = rss_mib()
scheduler.shutdown()
print(after - before)
"""


class TestDefaultStoreKeepsNothing:
    def test_no_result_object_is_reachable_from_the_store(self, small_payload):
        scheduler = JobScheduler(max_workers=2)
        try:
            for _ in range(2):
                job_id = scheduler.submit(small_payload)
                assert _wait_terminal(scheduler, job_id) == "finished"
            store = scheduler.store
            assert type(store) is JobStore
            assert store.load() == []
        finally:
            scheduler.shutdown()
        banned = (ShardOutcome, ShardResult, MatchEvent, StoredTuple, Record)
        leaked = [
            type(obj).__name__
            for obj in _reachable(store)
            if isinstance(obj, banned)
        ]
        assert leaked == []

    def test_rss_grows_no_more_than_on_a_jsonl_store(self):
        """40 2-shard 1 000 × 1 000 jobs on the default store grow RSS by
        at most 2 MiB more than the same jobs on a JSONL store."""
        env = dict(os.environ, PYTHONPATH=_SRC)
        growth = {}
        for backend in ("default", "jsonl"):
            completed = subprocess.run(
                [sys.executable, "-c", _RSS_SCRIPT, backend],
                capture_output=True, text=True, env=env, timeout=240,
            )
            assert completed.returncode == 0, completed.stderr
            growth[backend] = float(completed.stdout)
        assert growth["default"] <= growth["jsonl"] + 2.0, growth


_ORPHAN_SCRIPT = """\
import sys, time
from repro.server import JobScheduler

scheduler = JobScheduler(max_workers=2)
print(" ".join(str(pid) for pid in scheduler._pool._executor._processes), flush=True)
time.sleep(600)
"""


def test_pool_workers_exit_when_the_server_is_killed(process_alive):
    env = dict(os.environ, PYTHONPATH=_SRC)
    server = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        workers = [int(pid) for pid in server.stdout.readline().split()]
        assert len(workers) == 2
        assert all(process_alive(pid) for pid in workers)
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(process_alive, workers)):
            time.sleep(0.05)
        survivors = [pid for pid in workers if process_alive(pid)]
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    for pid in survivors:  # never leave a stray worker behind
        os.kill(pid, signal.SIGKILL)
    assert survivors == []
