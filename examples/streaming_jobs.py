#!/usr/bin/env python3
"""Jobs-layer tour: fluent builder, streaming matches, progress, cancel, shards.

The jobs layer (``repro.jobs``) is the public face of the paper's
*adaptive, time-aware* processing: instead of one blocking call, a
linkage run is a job — built fluently, streamed lazily, observed live
and cancellable mid-run with partial results.  This example walks
through all four surfaces on a generated workload:

1. stream matches as they are found (first match long before the run ends);
2. watch live progress fed by ``StepResult``/``ShardCompleted`` events;
3. cancel a running job and keep the partial result;
4. run the same job sharded on the ``process`` backend, then stream a
   sharded job.

Run with::

    python examples/streaming_jobs.py
"""

from __future__ import annotations

from repro.core.thresholds import Thresholds
from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case
from repro.jobs import LinkageJob

#: A quick operating point: assess every 25 steps on this small workload.
FAST = Thresholds(delta_adapt=25, window_size=25)


def build_dataset():
    dataset = generate_test_case(
        STANDARD_TEST_CASES["few_high_child"], parent_size=400, child_size=800
    )
    print(
        f"workload: {len(dataset.parent)} parent rows, "
        f"{len(dataset.child)} child rows, "
        f"{len(dataset.true_pairs)} true pairs\n"
    )
    return dataset


def demo_streaming(dataset) -> None:
    """Matches surface incrementally, not after the run."""
    handle = (
        LinkageJob.between(dataset.parent, dataset.child)
        .on("location")
        .strategy("adaptive")
        .thresholds(FAST)
        .with_progress()
        .build()
    )
    streamed = 0
    first_at_step = None
    for match in handle.stream_matches(batch_size=64):
        if streamed == 0:
            snapshot = handle.progress()
            first_at_step = snapshot.steps
            print(
                f"streaming: first match {match.pair} "
                f"(similarity {match.event.similarity:.2f}) after only "
                f"{snapshot.steps}/{snapshot.total_steps} steps"
            )
        streamed += 1
    print(
        f"streaming: {streamed} matches streamed; the first arrived at "
        f"step {first_at_step}, the run finished at step "
        f"{handle.progress().steps} — state: {handle.state}\n"
    )


def demo_cancel(dataset) -> None:
    """Deadline-style consumption: take what you need, cancel the rest."""
    handle = (
        LinkageJob.between(dataset.parent, dataset.child)
        .on("location")
        .thresholds(FAST)
        .build()
    )
    wanted = 25
    for index, match in enumerate(handle.stream_matches(batch_size=64)):
        if index + 1 == wanted:
            handle.cancel()
    result = handle.result()
    print(
        f"cancelled after {wanted} matches: partial result has "
        f"{result.pair_count} pairs, cancelled={result.cancelled}, "
        f"state: {handle.state}\n"
    )


def demo_process_backend(dataset) -> None:
    """Sharded execution on a worker-process pool, then a sharded stream."""
    handle = (
        LinkageJob.between(dataset.parent, dataset.child)
        .on("location")
        .thresholds(FAST)
        .sharded(4, backend="process", partitioner="gram-prefix")
        .with_progress()
        .build()
    )
    result = handle.run()
    snapshot = handle.progress()
    print(
        f"process backend: {result.pair_count} pairs across "
        f"{result.statistics['shards']} prefix-gram-replicated shards "
        f"({result.statistics['raw_result_size']} raw discoveries, "
        f"{result.statistics['duplicate_matches']} deduped); "
        f"progress saw shards {snapshot.shards_done}/{snapshot.total_shards}"
    )

    # Streaming a sharded job walks the shards in id order on the calling
    # thread (the serial merge), so matches still surface incrementally.
    job = (
        LinkageJob.between(dataset.parent, dataset.child)
        .on("location")
        .thresholds(FAST)
        .sharded(2)
        .build()
    )
    count = sum(1 for _match in job.stream_matches(batch_size=128))
    print(f"sharded stream: {count} matches consumed on 2 shards\n")


def main() -> None:
    dataset = build_dataset()
    demo_streaming(dataset)
    demo_cancel(dataset)
    demo_process_backend(dataset)


if __name__ == "__main__":
    main()
