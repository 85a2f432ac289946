"""Linkage-as-a-service: the HTTP job API over the jobs layer.

Everything below the routes already existed — :class:`~repro.jobs.LinkageJob`
builds specs, :class:`~repro.jobs.JobHandle` runs them, the runtime layer
shards and merges deterministically.  This package adds the service
skin, in three stdlib-only pieces:

* :mod:`repro.server.scheduler` — :class:`JobScheduler`: N concurrent
  jobs on one shared worker budget, weighted fair-share dispatch at
  shard granularity, per-shard match buffers for any number of streaming
  readers, restart-resume from a job store.
* :mod:`repro.server.store` — the :class:`JobStore` contract (whose
  default keeps nothing) and the append-only JSONL backend.
* :mod:`repro.server.app` — :class:`LinkageServer`: the
  :mod:`http.server`-based front end (``POST /jobs``, ``GET /jobs/{id}``,
  chunked NDJSON ``/matches`` byte-identical to ``repro link --stream``,
  ``DELETE`` to cancel, ``/healthz``, ``/metrics``).

Embed it in-process::

    from repro.server import LinkageServer

    server = LinkageServer(port=0).start()   # ephemeral port
    print(server.url)                        # http://127.0.0.1:NNNNN
    ...
    server.shutdown()

or run it from the CLI: ``repro serve --port 8080 --store jobs.jsonl``.
"""

from repro.server.app import LinkageServer
from repro.server.scheduler import (
    JobScheduler,
    MatchesUnavailable,
    QueueFull,
    UnknownJob,
)
from repro.server.store import JobStore, JsonlJobStore, StoredJob

__all__ = [
    "JobScheduler",
    "JobStore",
    "JsonlJobStore",
    "LinkageServer",
    "MatchesUnavailable",
    "QueueFull",
    "StoredJob",
    "UnknownJob",
]
