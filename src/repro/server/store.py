"""Pluggable job persistence: the :class:`JobStore` contract.

The scheduler records three things per job — the canonical JSON payload
at admission, each completed (non-partial) shard outcome as it lands,
and the terminal status — and asks for all of it back at startup.  That
contract is deliberately small, so backends are trivial to add:

* :class:`JobStore` — the default, which keeps nothing: its writes are
  no-ops and :meth:`~JobStore.load` returns no job.  A server without a
  store never calls ``restore()``, so a retained log would serve no one
  and only grow with every job it ran.
* :class:`JsonlJobStore` — an append-only JSON-lines file.  Every write
  is one appended line (``job`` / ``shard`` / ``status``), flushed
  immediately; :meth:`~JsonlJobStore.load` replays the log into per-job
  state.  Append-only means a crash mid-write loses at most the last
  line (tolerated on replay), never earlier records — the property the
  restart-resume guarantee stands on.

What restart-resume relies on, exactly:

* payloads are canonical (:func:`repro.jobs.serialization.normalize_payload`),
  so rebuilding the job rebuilds the *same* job;
* planning is deterministic, so the rebuilt job's shard plan equals the
  original and persisted shard ids line up;
* only complete shard outcomes are recorded (a shard interrupted by
  shutdown is simply absent and re-runs whole), so resumed runs merge
  bit-identically to uninterrupted ones;
* a shard record that does not decode (corrupt, or written by a build
  with another outcome format) counts as not persisted: :meth:`load`
  lists its shard id in :attr:`StoredJob.undecodable` and goes on, and the
  scheduler re-runs that shard through resume.

The JSONL backend holds a shard outcome as the one encoded string
:func:`~repro.jobs.serialization.encode_shard_outcome` makes — match
columns, no match events or records — and decodes it in ``load()``.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.jobs.serialization import (
    PayloadError,
    decode_shard_outcome,
    encode_shard_outcome,
)
from repro.runtime.sharding import ShardOutcome

__all__ = ["JobStore", "JsonlJobStore", "StoredJob"]


#: The statuses a closed job can record; any other counts as missing.
TERMINAL_STATUSES = ("finished", "cancelled", "failed")


@dataclass
class StoredJob:
    """Everything a store holds about one job (the :meth:`JobStore.load` row)."""

    job_id: str
    payload: Dict[str, object]
    #: Last recorded terminal status (``finished`` / ``cancelled`` /
    #: ``failed``) or ``None`` — the job was interrupted mid-run and a
    #: restarted server should resume it.
    status: Optional[str] = None
    #: Completed shard outcomes by original shard id (decoded, unbound:
    #: bind them to the rebuilt plan with ``ShardOutcome.of``).
    outcomes: Dict[int, ShardOutcome] = field(default_factory=dict)
    #: Shard ids whose recorded outcome did not decode: not persisted,
    #: so a restarted server runs them again.
    undecodable: Set[int] = field(default_factory=set)

    def add_encoded(self, shard_id: object, encoded: object) -> None:
        """Decode one recorded shard outcome into :attr:`outcomes`.

        A record that does not decode, or decodes to another shard id
        than it was filed under, lands in :attr:`undecodable` instead; a
        later record of the same shard that decodes replaces it.
        """
        try:
            outcome = decode_shard_outcome(encoded)
        except PayloadError:
            outcome = None
        if outcome is None or outcome.shard_id != shard_id:
            if isinstance(shard_id, int):
                self.undecodable.add(shard_id)
            return
        self.outcomes[shard_id] = outcome
        self.undecodable.discard(shard_id)


class JobStore:
    """The persistence contract the scheduler writes through — and the
    default backend, which keeps nothing.

    Every write is a no-op and :meth:`load` returns ``[]``, so a server
    on the default store holds no payload, outcome or status for the
    jobs it has run.  Implementations that persist must be safe to call
    from multiple scheduler worker threads; each method is one small
    atomic append-style operation.
    """

    def add_job(self, job_id: str, payload: Dict[str, object]) -> None:
        """Record a newly admitted job and its canonical payload."""

    def record_shard(self, job_id: str, outcome: ShardOutcome) -> None:
        """Record one *complete* shard outcome (never partial ones)."""

    def set_status(self, job_id: str, status: str) -> None:
        """Record a job's terminal status."""

    def load(self) -> List[StoredJob]:
        """Replay the store into one row per known job, in admission order."""
        return []

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""


class JsonlJobStore(JobStore):
    """Append-only JSON-lines disk backend (the restart-survivable one).

    Line types, one JSON object per line::

        {"type": "job",    "job": "job-1", "payload": {…}}
        {"type": "shard",  "job": "job-1", "shard": 0, "outcome": "<base64>"}
        {"type": "status", "job": "job-1", "status": "finished"}

    A shard line's ``outcome`` is
    :func:`~repro.jobs.serialization.encode_shard_outcome`'s string: the
    shard's match columns, counters and trace — the pickle a worker
    returns — base64-wrapped once; no match event or record is written.
    A line that does not parse, or parses to a record of the wrong shape
    (a ``job`` that is not a string, a ``payload`` that is not an
    object, a ``status`` that is not terminal), is skipped; a shard line
    that does not decode is listed in :attr:`StoredJob.undecodable` —
    never fatal.  The file is opened in append mode and every write is
    flushed and fsync'd, so a SIGTERM'd server's completed shards are on
    disk before the process dies.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._file = open(path, "a", encoding="utf-8")
        if self._file.tell() and not self._ends_with_newline():
            # A crash mid-append left a torn last line: end it, so the
            # next record starts a line of its own instead of being glued
            # to the fragment and lost with it on the next load.
            self._file.write("\n")
            self._file.flush()
            os.fsync(self._file.fileno())

    def _ends_with_newline(self) -> bool:
        with open(self.path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) == b"\n"

    def _write_line(self, record: Dict[str, object]) -> None:
        line = json.dumps(record)
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()
            os.fsync(self._file.fileno())

    def add_job(self, job_id: str, payload: Dict[str, object]) -> None:
        self._write_line({"type": "job", "job": job_id, "payload": payload})

    def record_shard(self, job_id: str, outcome: ShardOutcome) -> None:
        self._write_line(
            {
                "type": "shard",
                "job": job_id,
                "shard": outcome.shard_id,
                "outcome": encode_shard_outcome(outcome),
            }
        )

    def set_status(self, job_id: str, status: str) -> None:
        self._write_line({"type": "status", "job": job_id, "status": status})

    def load(self) -> List[StoredJob]:
        jobs: Dict[str, StoredJob] = {}
        try:
            # Lines are ASCII (``json.dumps`` escapes the rest); a byte
            # that is not UTF-8 spoils only the line it is on.
            with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    self._replay(jobs, line)
        except FileNotFoundError:
            pass
        return list(jobs.values())

    @staticmethod
    def _replay(jobs: Dict[str, StoredJob], line: str) -> None:
        """Fold one log line into ``jobs``; a malformed line changes nothing."""
        line = line.strip()
        if not line:
            return
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            # A crash mid-append can truncate the last line;
            # everything before it is intact — skip and go on.
            return
        if not isinstance(record, dict) or not isinstance(record.get("job"), str):
            return
        kind, job_id = record.get("type"), record["job"]
        if kind == "job":
            payload = record.get("payload")
            if isinstance(payload, dict):
                jobs[job_id] = StoredJob(job_id=job_id, payload=payload)
        elif kind == "shard" and job_id in jobs:
            jobs[job_id].add_encoded(record.get("shard"), record.get("outcome"))
        elif kind == "status" and job_id in jobs:
            status = record.get("status")
            if status in TERMINAL_STATUSES:
                jobs[job_id].status = status

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()
