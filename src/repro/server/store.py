"""Pluggable job persistence: the :class:`JobStore` contract.

The scheduler records three things per job — the canonical JSON payload
at admission, each completed (non-partial) shard outcome as it lands,
and the terminal status — and asks for all of it back at startup.  That
contract is deliberately small, so backends are trivial to add:

* :class:`MemoryJobStore` — the in-process default.  Nothing survives a
  restart (its :meth:`~MemoryJobStore.load` only ever feeds a scheduler
  sharing the same process), but it keeps the very lines the JSONL
  backend writes and replays them through the same code, so tests run
  against the real record/replay logic.
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

Both backends hold a shard outcome as the one encoded string
:func:`~repro.jobs.serialization.encode_shard_outcome` makes — match
columns, no match events or records — and decode it in ``load()``.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.jobs.serialization import (
    PayloadError,
    decode_shard_outcome,
    encode_shard_outcome,
)
from repro.runtime.sharding import ShardOutcome

__all__ = ["JobStore", "JsonlJobStore", "MemoryJobStore", "StoredJob"]


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
    """The persistence contract the scheduler writes through.

    Implementations must be safe to call from multiple scheduler worker
    threads; each method is one small atomic append-style operation.
    """

    def add_job(self, job_id: str, payload: Dict[str, object]) -> None:
        """Record a newly admitted job and its canonical payload."""
        raise NotImplementedError

    def record_shard(self, job_id: str, outcome: ShardOutcome) -> None:
        """Record one *complete* shard outcome (never partial ones)."""
        raise NotImplementedError

    def set_status(self, job_id: str, status: str) -> None:
        """Record a job's terminal status."""
        raise NotImplementedError

    def load(self) -> List[StoredJob]:
        """Replay the store into one row per known job, in admission order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""


class _LineLogStore(JobStore):
    """A job store kept as the JSON-lines log both backends share.

    Every write is one line (``job`` / ``shard`` / ``status``, see
    :class:`JsonlJobStore`); :meth:`load` replays the lines in order.
    Subclasses say where lines go (:meth:`_write_line`) and where they
    come back from (:meth:`_read_lines`).
    """

    def _write_line(self, line: str) -> None:
        raise NotImplementedError

    def _read_lines(self) -> Iterable[str]:
        raise NotImplementedError

    def add_job(self, job_id: str, payload: Dict[str, object]) -> None:
        self._write_line(
            json.dumps({"type": "job", "job": job_id, "payload": payload})
        )

    def record_shard(self, job_id: str, outcome: ShardOutcome) -> None:
        self._write_line(
            json.dumps(
                {
                    "type": "shard",
                    "job": job_id,
                    "shard": outcome.shard_id,
                    "outcome": encode_shard_outcome(outcome),
                }
            )
        )

    def set_status(self, job_id: str, status: str) -> None:
        self._write_line(
            json.dumps({"type": "status", "job": job_id, "status": status})
        )

    def load(self) -> List[StoredJob]:
        jobs: Dict[str, StoredJob] = {}
        for line in self._read_lines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A crash mid-append can truncate the last line;
                # everything before it is intact — skip and go on.
                continue
            if not isinstance(record, dict):
                continue
            kind = record.get("type")
            job_id = record.get("job")
            if kind == "job":
                jobs[job_id] = StoredJob(job_id=job_id, payload=record["payload"])
            elif kind == "shard" and job_id in jobs:
                jobs[job_id].add_encoded(record.get("shard"), record.get("outcome"))
            elif kind == "status" and job_id in jobs:
                jobs[job_id].status = record["status"]
        return list(jobs.values())


class MemoryJobStore(_LineLogStore):
    """The zero-persistence default backend: the log's lines, in memory.

    Holds exactly the text :class:`JsonlJobStore` would write — payload
    JSON and encoded match columns — so a long-lived server on this
    store keeps no match events, records, tables or result objects for
    the jobs it has run, and :meth:`load` replays through the same code.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lines: List[str] = []

    def _write_line(self, line: str) -> None:
        with self._lock:
            self._lines.append(line)

    def _read_lines(self) -> Iterable[str]:
        with self._lock:
            return list(self._lines)


class JsonlJobStore(_LineLogStore):
    """Append-only JSON-lines disk backend (the restart-survivable one).

    Line types, one JSON object per line::

        {"type": "job",    "job": "job-1", "payload": {…}}
        {"type": "shard",  "job": "job-1", "shard": 0, "outcome": "<base64>"}
        {"type": "status", "job": "job-1", "status": "finished"}

    A shard line's ``outcome`` is
    :func:`~repro.jobs.serialization.encode_shard_outcome`'s string: the
    shard's match columns, counters and trace — the pickle a worker
    returns — base64-wrapped once; no match event or record is written.
    A shard line that does not decode is listed in
    :attr:`StoredJob.undecodable` and skipped, never fatal.  The file is
    opened in append mode and every write is flushed and fsync'd, so a
    SIGTERM'd server's completed shards are on disk before the process
    dies.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._file = open(path, "a", encoding="utf-8")

    def _write_line(self, line: str) -> None:
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()
            os.fsync(self._file.fileno())

    def _read_lines(self) -> Iterator[str]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                yield from handle
        except FileNotFoundError:
            return

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()
