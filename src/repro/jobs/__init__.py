"""The job-oriented public API.

The paper's contribution is *adaptive, time-aware* join processing, and
this layer gives it a matching public surface: instead of one blocking,
materialise-everything call, a linkage run is a **job** — declared with
the fluent, validating :class:`LinkageJob` builder, compiled into the
runtime layer's frozen :class:`~repro.runtime.config.RunConfig`, and
executed through a :class:`JobHandle` that can block
(:meth:`~repro.jobs.handle.JobHandle.run`), stream matches lazily as
they are found (:meth:`~repro.jobs.handle.JobHandle.stream_matches`),
report live progress
(:meth:`~repro.jobs.handle.JobHandle.progress`, fed by
``StepResult``/``ShardCompleted`` bus events through a
:class:`~repro.runtime.collectors.ProgressCollector`) and be cancelled
mid-run with partial results
(:meth:`~repro.jobs.handle.JobHandle.cancel`)::

    from repro.jobs import LinkageJob

    handle = (
        LinkageJob.between(parent, child)
        .on("location")
        .strategy("adaptive")
        .policy("deadline", seconds=2.0)
        .sharded(8, partitioner="gram-prefix")
        .build()
    )
    for match in handle.stream_matches():
        print(match.pair, match.event.similarity)

The legacy :func:`repro.linkage.api.link_tables` survives as a thin
wrapper over this builder, so existing call sites keep working
unchanged.  See ARCHITECTURE.md ("Jobs layer") for the full picture.

:mod:`repro.jobs.serialization` adds the network-facing half: JSON job
payloads (validated through the same builder) and the pickle+base64
codec the HTTP server's disk store uses to persist shard outcomes
across restarts.
"""

from repro.jobs.builder import STRATEGIES, JobSpec, LinkageJob
from repro.jobs.handle import DEFAULT_STREAM_BATCH, JobHandle, StreamedMatch
from repro.jobs.result import LinkageResult
from repro.jobs.serialization import (
    PayloadError,
    build_job,
    decode_shard_outcome,
    encode_shard_outcome,
    normalize_payload,
)

__all__ = [
    "DEFAULT_STREAM_BATCH",
    "JobHandle",
    "JobSpec",
    "LinkageJob",
    "LinkageResult",
    "PayloadError",
    "STRATEGIES",
    "StreamedMatch",
    "build_job",
    "decode_shard_outcome",
    "encode_shard_outcome",
    "normalize_payload",
]
