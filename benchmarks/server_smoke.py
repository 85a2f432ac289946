#!/usr/bin/env python
"""CI smoke for the linkage server (``repro serve``), end to end.

Boots the real server as a subprocess on an ephemeral port with a
disk-backed job store, then drives the whole service surface over plain
HTTP and asserts the contracts that must never rot:

1. **Stream parity** — a sharded adaptive job submitted over ``POST
   /jobs`` and streamed from ``GET /jobs/{id}/matches`` must be
   *byte-identical* to what ``repro link --stream`` prints for the same
   CSVs and knobs (same matches, same order, same JSON formatting).
2. **Cancellation** — a second job is cancelled mid-run (the server runs
   with a small per-batch delay so "mid-run" is reliable); ``DELETE``
   answers 202 and the job settles in ``cancelled``.
3. **Clean shutdown** — on SIGTERM the server exits 0 and reports
   ``live shared-memory blocks: 0`` (no leaked segments).
4. **Restart survival** — a second server over the same store lists both
   jobs, keeps the deliberate cancel terminal, and re-streams the
   finished job's matches from persisted outcomes, again byte-identical.
5. **Resume after an interrupt** — a job SIGTERMed *mid-run* is resumed
   automatically by the restarted server (only its missing shards
   re-run) and its completed stream is byte-identical to the reference.
6. **Kill -9** — a server SIGKILLed mid-run leaves no child process
   behind (its pool workers exit on their own within 5 s), and a server
   restarted over the same store resumes the job from the shard lines
   the killed one wrote, byte-identical to the reference again.

Zero third-party deps; everything runs on the bare interpreter.

Usage::

    PYTHONPATH=src timeout 120 python benchmarks/server_smoke.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case

PARENT_SIZE = 80
CHILD_SIZE = 140
SHARDS = 3
THRESHOLDS = {"delta_adapt": 25, "window_size": 25}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_csvs(workdir: Path) -> Dict[str, Path]:
    dataset = generate_test_case(
        STANDARD_TEST_CASES["uniform_child"],
        parent_size=PARENT_SIZE,
        child_size=CHILD_SIZE,
    )
    left = workdir / "municipalities.csv"
    right = workdir / "accidents.csv"
    dataset.parent.to_csv(left)
    dataset.child.to_csv(right)
    return {"left": left, "right": right}


def _cli_stream_lines(csvs: Dict[str, Path], workdir: Path) -> List[str]:
    """The reference bytes: what ``repro link --stream`` prints."""
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "link",
            str(csvs["left"]),
            str(csvs["right"]),
            "--attribute",
            "location",
            "--shards",
            str(SHARDS),
            "--delta-adapt",
            str(THRESHOLDS["delta_adapt"]),
            "--window-size",
            str(THRESHOLDS["window_size"]),
            "--stream",
            "--output",
            str(workdir / "pairs.csv"),
        ],
        capture_output=True,
        text=True,
    )
    check(
        completed.returncode == 0,
        f"repro link --stream failed: {completed.stderr}",
    )
    return completed.stdout.splitlines()


def _payload(csvs: Dict[str, Path], priority: int = 1) -> Dict[str, object]:
    return {
        "left_csv": str(csvs["left"]),
        "right_csv": str(csvs["right"]),
        "attribute": "location",
        "shards": SHARDS,
        "thresholds": dict(THRESHOLDS),
        "priority": priority,
    }


def _request(url: str, method: str = "GET", body: Optional[dict] = None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _read_stream(url: str) -> List[str]:
    with urllib.request.urlopen(url, timeout=120) as response:
        check(response.status == 200, f"GET {url} -> {response.status}")
        return response.read().decode("utf-8").splitlines()


def _children(pid: int) -> List[int]:
    """The live child processes of ``pid`` (Linux ``/proc``)."""
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(child) for child in path.read_text().split()]


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _wait_state(base: str, job_id: str, states, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body = _request(f"{base}/jobs/{job_id}")
        if body["state"] in states:
            return body
        time.sleep(0.05)
    raise SystemExit(f"FAIL: {job_id} never reached {states}")


class _Server:
    """A ``repro serve`` subprocess with a parsed base URL."""

    def __init__(
        self,
        store: Path,
        shard_delay: float = 0.0,
        shard_batch: Optional[int] = None,
    ) -> None:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--store",
            str(store),
        ]
        if shard_delay:
            command += ["--shard-delay", str(shard_delay)]
        if shard_batch is not None:
            command += ["--shard-batch", str(shard_batch)]
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline().strip()
        check(
            line.startswith("serving on http://"),
            f"unexpected startup line: {line!r}",
        )
        self.url = line.split("serving on ", 1)[1]

    def terminate(self) -> str:
        """SIGTERM, assert a clean exit, return the remaining stdout."""
        self.process.send_signal(signal.SIGTERM)
        stdout, stderr = self.process.communicate(timeout=60)
        check(
            self.process.returncode == 0,
            f"server exited {self.process.returncode}: {stderr}",
        )
        return stdout


def _submit_and_catch_mid_run(base: str, csvs: Dict[str, Path]) -> str:
    """Submit a job and return once >= 1 shard is done and the job runs."""
    _, body = _request(f"{base}/jobs", method="POST", body=_payload(csvs))
    job_id = body["id"]
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        _, body = _request(f"{base}/jobs/{job_id}")
        progress = body.get("progress") or {}
        if body["state"] == "running" and progress.get("shards_done", 0) >= 1:
            break
        time.sleep(0.02)
    check(body["state"] == "running", f"never caught {job_id} mid-run: {body}")
    return job_id


def run_smoke(workdir: Path) -> Dict[str, object]:
    csvs = _write_csvs(workdir)
    reference = _cli_stream_lines(csvs, workdir)
    check(len(reference) > 0, "the reference CLI stream is empty")
    store = workdir / "jobs.jsonl"

    # -- leg 1: submit, stream, cancel, SIGTERM ------------------------
    server = _Server(store, shard_delay=0.01)
    base = server.url
    status, body = _request(f"{base}/healthz")
    check(status == 200 and body == {"status": "ok"}, "healthz")

    status, body = _request(f"{base}/jobs", method="POST", body=_payload(csvs))
    check(status == 201, f"POST /jobs -> {status}")
    first_job = body["id"]
    streamed = _read_stream(f"{base}/jobs/{first_job}/matches")
    check(
        streamed == reference,
        f"HTTP stream differs from `repro link --stream` "
        f"({len(streamed)} vs {len(reference)} lines)",
    )
    finished = _wait_state(base, first_job, {"finished"})
    check(
        finished["result_size"] == len(reference),
        "result_size != streamed line count",
    )

    status, body = _request(
        f"{base}/jobs", method="POST", body=_payload(csvs, priority=2)
    )
    second_job = body["id"]
    _wait_state(base, second_job, {"running"})
    status, body = _request(f"{base}/jobs/{second_job}", method="DELETE")
    check(status == 202, f"DELETE -> {status}")
    cancelled = _wait_state(base, second_job, {"cancelled"})
    check(cancelled["state"] == "cancelled", "cancel did not settle")

    stdout = server.terminate()
    check(
        "live shared-memory blocks: 0" in stdout,
        f"shutdown did not report zero live blocks: {stdout!r}",
    )

    # -- leg 2: restart over the same store ----------------------------
    server = _Server(store)
    base = server.url
    _, body = _request(f"{base}/jobs")
    states = {job["id"]: job["state"] for job in body["jobs"]}
    check(
        states.get(first_job) == "finished",
        f"restart lost the finished job: {states}",
    )
    check(
        states.get(second_job) == "cancelled",
        f"restart did not keep the cancel terminal: {states}",
    )
    replayed = _read_stream(f"{base}/jobs/{first_job}/matches")
    check(
        replayed == reference,
        "replay-from-disk stream differs from the reference",
    )
    stdout = server.terminate()
    check(
        "live shared-memory blocks: 0" in stdout,
        f"restarted server leaked blocks: {stdout!r}",
    )

    # -- leg 3: SIGTERM mid-run, restart, auto-resume ------------------
    # Small batches + a per-batch delay stretch each shard to ~1s so the
    # SIGTERM reliably lands with at least one shard persisted and at
    # least one missing.
    server = _Server(store, shard_delay=0.1, shard_batch=8)
    third_job = _submit_and_catch_mid_run(server.url, csvs)
    server.terminate()  # interrupt: >=1 shard persisted, job unfinished

    server = _Server(store)
    base = server.url
    resumed = _wait_state(base, third_job, {"finished"})
    check(
        resumed["statistics"].get("resumed") is True,
        f"restart did not resume {third_job}: {resumed}",
    )
    completed = _read_stream(f"{base}/jobs/{third_job}/matches")
    check(
        completed == reference,
        "resumed stream is not bit-identical to the reference",
    )
    stdout = server.terminate()
    check(
        "live shared-memory blocks: 0" in stdout,
        f"resuming server leaked blocks: {stdout!r}",
    )

    # -- leg 4: SIGKILL mid-run, no orphans, restart, auto-resume -------
    server = _Server(store, shard_delay=0.1, shard_batch=8)
    children = _children(server.process.pid)
    check(len(children) >= 2, f"no pool workers under the server: {children}")
    fourth_job = _submit_and_catch_mid_run(server.url, csvs)
    server.process.kill()
    # wait(), not communicate(): an orphaned worker would hold the pipes.
    server.process.wait(timeout=60)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and any(map(_alive, children)):
        time.sleep(0.05)
    orphans = [pid for pid in children if _alive(pid)]
    for pid in orphans:  # leave nothing running, then fail
        os.kill(pid, signal.SIGKILL)
    check(orphans == [], f"processes outlived the killed server: {orphans}")

    server = _Server(store)
    base = server.url
    resumed = _wait_state(base, fourth_job, {"finished"})
    check(
        resumed["statistics"].get("resumed") is True,
        f"restart did not resume {fourth_job} after SIGKILL: {resumed}",
    )
    completed = _read_stream(f"{base}/jobs/{fourth_job}/matches")
    check(
        completed == reference,
        "stream resumed after SIGKILL is not bit-identical to the reference",
    )
    stdout = server.terminate()
    check(
        "live shared-memory blocks: 0" in stdout,
        f"server resuming after SIGKILL leaked blocks: {stdout!r}",
    )

    return {
        "streamed_lines": len(reference),
        "jobs": states,
        "restart_replay_identical": True,
        "resume_after_sigterm_identical": True,
        "children_left_after_sigkill": len(orphans),
        "resume_after_sigkill_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI smoke (the only mode; present for CLI symmetry)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="optionally write the smoke summary as JSON",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="server-smoke-") as tmp:
        summary = run_smoke(Path(tmp))
    print(json.dumps(summary, indent=2))
    if args.output is not None:
        args.output.write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
    print("server smoke: all contracts held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
