"""The server's JSON wire formats, in one place.

Every byte the HTTP layer emits is produced here or delegated to a
format owned by a lower layer — :func:`~repro.jobs.handle.match_line`
for match lines (``repro link --stream`` prints them too),
:meth:`ProgressSnapshot.to_json` for progress, and
:meth:`ShardedJoinResult.describe_json` (via ``LinkageResult.statistics``)
for result statistics — so the CLI and the server can never drift apart.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.runtime.collectors import ProgressSnapshot

__all__ = [
    "error_body",
    "job_status_body",
    "render_metrics",
    "spec_echo",
]

def error_body(message: str) -> Dict[str, object]:
    """The uniform error payload (every non-2xx JSON body)."""
    return {"error": message}


def spec_echo(payload: Mapping[str, object]) -> Dict[str, object]:
    """The descriptive subset of a job payload that status bodies echo
    (never the inline tables)."""
    return {
        key: payload.get(key)
        for key in ("strategy", "attribute", "shards", "backend", "partitioner", "policy")
    }


def job_status_body(
    job_id: str,
    state: str,
    priority: int,
    payload: Mapping[str, object],
    progress: Optional[ProgressSnapshot] = None,
    statistics: Optional[Dict[str, object]] = None,
    result_size: Optional[int] = None,
    error: Optional[str] = None,
) -> Dict[str, object]:
    """The ``GET /jobs/{id}`` (and ``POST /jobs`` echo) payload.

    ``state`` is the :class:`~repro.jobs.handle.JobHandle` state word
    prefixed with the scheduler's admission view (``queued`` until the
    first shard is dispatched).  ``spec`` echoes the descriptive subset
    of the canonical payload — enough for a client listing jobs to know
    what each one is, without the (potentially large) inline tables.
    """
    body: Dict[str, object] = {
        "id": job_id,
        "state": state,
        "priority": priority,
        "spec": spec_echo(payload),
    }
    if progress is not None:
        body["progress"] = progress.to_json()
    if result_size is not None:
        body["result_size"] = result_size
    if statistics is not None:
        body["statistics"] = statistics
    if error is not None:
        body["error"] = error
    return body


def render_metrics(counters: Dict[str, object]) -> str:
    """``GET /metrics``: one ``name value`` line per counter, sorted."""
    return (
        "".join(f"{name} {counters[name]}\n" for name in sorted(counters))
    )
