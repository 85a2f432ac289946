"""The HTTP workload's two halves: the server under test and the load.

:class:`ServerProcess` runs ``python -m repro.cli serve`` as a
subprocess with a disk-backed job store.  :func:`closed_loop` is the
load generator: a fixed number of client threads, each submitting its
next job only after the previous one's match stream reached EOF — a
closed loop, so a slower server receives less load.  One *op* is
``POST /jobs`` until the last byte of ``GET /jobs/{id}/matches``.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

REQUEST_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 30.0


class OpFailed(RuntimeError):
    """An op that did not complete: non-2xx status or a malformed reply."""


class ServerProcess:
    """A ``repro serve`` subprocess with a JSONL store under ``work_dir``."""

    def __init__(self, work_dir: Path) -> None:
        directory = Path(tempfile.mkdtemp(prefix="server-", dir=work_dir))
        self.store = directory / "jobs.jsonl"
        self._log = open(directory / "server.log", "w", encoding="utf-8")
        self.stdout: Optional[str] = None
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--workers", "2",
                "--store", str(self.store),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            line = self.process.stdout.readline().strip()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"unexpected server start-up line: {line!r}")
            host, port = line.rsplit("/", 1)[1].split(":")
            self.address: Tuple[str, int] = (host, int(port))
            self._await_healthz()
        except BaseException:
            self.stop()
            raise

    def _await_healthz(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                status, _ = request(self.address, "GET", "/healthz")
            except OSError:
                status = None
            if status == 200:
                return
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def rss_mb(self) -> float:
        """The server's resident set right now, from ``/proc``."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmRSS line for the server process")

    def stop(self) -> str:
        """SIGTERM the server, wait for it, return what it printed (idempotent)."""
        if self.stdout is None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                self.stdout = self.process.communicate(timeout=30)[0]
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.stdout = self.process.communicate()[0]
            self._log.close()
        return self.stdout

    @property
    def leaked_blocks(self) -> Optional[int]:
        """The count on the server's ``live shared-memory blocks`` exit line."""
        for line in (self.stdout or "").splitlines():
            if line.startswith("live shared-memory blocks:"):
                return int(line.rsplit(":", 1)[1])
        return None


def request(
    address: Tuple[str, int], method: str, path: str, body: Optional[bytes] = None
) -> Tuple[int, bytes]:
    """One request on a fresh connection; returns ``(status, body)``."""
    connection = HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@dataclass
class OpSample:
    """Client-side timestamps (``perf_counter``) and the bytes of one op."""

    payload_index: int
    job_id: str
    started: float
    submitted: float
    stream_started: float
    first_line: float
    ended: float
    ndjson: bytes
    status_s: Optional[float] = None

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    def pairs(self) -> List[Tuple[int, int]]:
        """The streamed ``(left_index, right_index)`` sequence."""
        return [
            (match["left_index"], match["right_index"])
            for match in map(json.loads, self.ndjson.splitlines())
        ]


def run_op(
    address: Tuple[str, int], payload_index: int, body: bytes, with_status: bool
) -> OpSample:
    """Submit one job and stream its matches to EOF."""
    started = time.perf_counter()
    status, reply = request(address, "POST", "/jobs", body)
    if status != 201:
        raise OpFailed(f"POST /jobs -> {status}: {reply[:200]!r}")
    job_id = json.loads(reply)["id"]
    submitted = time.perf_counter()
    connection = HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
    try:
        stream_started = time.perf_counter()
        connection.request("GET", f"/jobs/{job_id}/matches")
        response = connection.getresponse()
        if response.status != 200:
            raise OpFailed(f"GET /jobs/{job_id}/matches -> {response.status}")
        head = response.readline()
        first_line = time.perf_counter()
        ndjson = head + response.read()
        ended = time.perf_counter()
    finally:
        connection.close()
    sample = OpSample(
        payload_index, job_id, started, submitted, stream_started,
        first_line, ended, ndjson,
    )
    if with_status:
        status_started = time.perf_counter()
        status, _ = request(address, "GET", f"/jobs/{job_id}")
        sample.status_s = time.perf_counter() - status_started
        if status != 200:
            raise OpFailed(f"GET /jobs/{job_id} -> {status}")
    return sample


def closed_loop(
    address: Tuple[str, int],
    payloads: Sequence[bytes],
    clients: int,
    should_start: Callable[[int, float], bool],
    with_status: bool = False,
) -> Tuple[List[OpSample], List[str], float]:
    """Drive ``clients`` closed-loop threads; return samples, errors, wall-clock.

    Before each op a client asks ``should_start(ops_claimed, elapsed)``;
    the first ``False`` ends that client.  Payloads are handed out round
    robin across all clients.
    """
    lock = threading.Lock()
    samples: List[OpSample] = []
    errors: List[str] = []
    claimed = 0
    phase_started = time.perf_counter()

    def client() -> None:
        nonlocal claimed
        while True:
            with lock:
                if not should_start(claimed, time.perf_counter() - phase_started):
                    return
                index = claimed % len(payloads)
                claimed += 1
            try:
                sample = run_op(address, index, payloads[index], with_status)
            except (OSError, OpFailed, ValueError, KeyError) as error:
                with lock:
                    errors.append(f"{type(error).__name__}: {error}")
            else:
                with lock:
                    samples.append(sample)

    threads = [
        threading.Thread(target=client, name=f"client-{n}") for n in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, errors, time.perf_counter() - phase_started
