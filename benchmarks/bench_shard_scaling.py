#!/usr/bin/env python
"""Trajectory benchmark for the sharded execution layer.

Runs the same adaptive (MAR) join at several shard counts (default
1/2/4/8) on both execution backends (serial / process) and records, per
shard count:

* wall-clock seconds per backend, plus the within-run **speedup ratio**
  ``serial_seconds / process_seconds`` (compare ratios across trajectory
  entries, not absolute times — machine noise is ±10–15 %);
* the merged match count and the match *overlap* with the unsharded
  reference run (the recorded ``match_recall_vs_unsharded`` makes any
  loss visible so it can't silently regress);
* partition skew (min/max shard sizes).

On top of the timing sweep, every run records a **per-partitioner recall
probe** (``recall_probe`` in the entry): a schedule-free all-approximate
workload (Jaccard-verified, so the match predicate is symmetric and the
bar below is exact rather than fixture-dependent) is sharded under each
probed partitioner and compared with its unsharded reference, isolating
what the *partitioner* loses from what per-shard adaptive scheduling
loses.  ``hash`` drops the cross-shard variant pairs; ``gram-prefix``
(prefix-signature replication with merge-time dedup) must reproduce the
unsharded match set *exactly* — the probe enforces that bar (lost or
extra pairs both fail) and also records its replication factor and
raw-vs-deduped match counts, i.e. the work the recall guarantee costs.

Every entry additionally records the **shard handoff accounting**
(ISSUE 8): the resolved handoff of the sweep, the per-shard wire payload
a process-backend task pickles to under each representation
(``payload_bytes_per_shard``: full records under ``pickle``, a fixed-size
descriptor under ``shared-memory``), the one-time encode + publish cost
(``handoff_seconds``), and — when the process backend is probed — the
process speedup under both handoffs (``process_speedup_pickle`` /
``process_speedup_shm``), so the representation's effect on the
multi-core path is measured, not asserted.

Sanity bars enforced every run: the serial backend must be
bit-deterministic (two runs, identical pair sets), every backend must
produce the identical merged result at every shard count, the two
handoffs must produce the identical merged result on the process
backend, 1-shard serial must reproduce the unsharded session exactly,
and the gram-prefix probe recall must be exactly 1.0.

Results are appended to ``BENCH_shard_scaling.json`` (one entry per
invocation), the shard-layer counterpart of ``BENCH_probe_fastpath.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py                # full
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --smoke        # CI
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --recall-smoke # CI recall bar
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --zero-copy-smoke

The smoke run does 1 vs 2 shards on the serial backend only and finishes
in seconds; ``--recall-smoke`` runs *only* the recall probe (hash vs
gram-prefix, 2 shards) and fails the process if replicated recall ≠
1.0 — the CI recall-preservation gate.  ``--zero-copy-smoke``
is the CI gate for the shared-memory handoff: a process-backend run at
2 shards under each handoff must merge bit-identically, and the
shared-memory segment registry must drain to zero on both the success
and the (fault-injected) failure path; any drift or leak exits 1.
See PERFORMANCE.md for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List

from repro.core.state_machine import JoinState
from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case
from repro.runtime.config import RunConfig
from repro.runtime.errors import ShardExecutionError
from repro.runtime.faults import FaultPlan
from repro.runtime.handoff import (
    HANDOFF_MODES,
    live_block_count,
    live_block_names,
    shared_memory_available,
)
from repro.runtime.parallel import estimate_shard_payload_bytes, run_sharded
from repro.runtime.session import JoinSession
from repro.runtime.sharding import ShardPlan

DEFAULT_TOTAL_TUPLES = 12_000
SMOKE_TOTAL_TUPLES = 2_000
#: The recall probe is all-approximate (the most expensive operator), so
#: it runs on its own, smaller workload.
RECALL_PROBE_TUPLES = 3_000
SMOKE_RECALL_PROBE_TUPLES = 1_000
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)
SMOKE_SHARD_COUNTS = (1, 2)
DEFAULT_BACKENDS = ("serial", "process")
#: The CI smoke pins serial/process agreement at 1 and 2 shards.
SMOKE_BACKENDS = ("serial", "process")
#: Partitioners compared by the recall probe: the exact-semantics default
#: against the prefix-gram-replicated full-recall partitioner.
RECALL_PARTITIONERS = ("hash", "gram-prefix")
#: Partitioners the probe holds to the exact-reproduction bar.
REPLICATED_PARTITIONERS = ("gram-prefix",)
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_shard_scaling.json"


def _run(
    dataset, config, shards: int, backend: str, partitioner: str = "hash",
    handoff: str = "auto",
):
    started = time.perf_counter()
    result = run_sharded(
        dataset.parent, dataset.child, "location", config,
        shards=shards, backend=backend, partitioner=partitioner,
        handoff=handoff,
    )
    return time.perf_counter() - started, result


def _recall(found_pairs, reference_pairs) -> float:
    """Fraction of the reference match set the sharded run recovered.

    An empty reference means there was nothing to lose: recall is 1.0 by
    definition (and dividing by ``len(reference_pairs)`` would crash the
    bench on match-free workloads).
    """
    if not reference_pairs:
        return 1.0
    return round(len(found_pairs & reference_pairs) / len(reference_pairs), 4)


def all_approximate_config() -> RunConfig:
    """The schedule-free recall-probe configuration (fixed ``lap/rap``).

    ``verify_jaccard=True`` makes the match predicate a symmetric
    function of the pair, which is what turns the gram-prefix partitioner's
    "every matchable pair is co-located" into exact set equality with
    the unsharded run — the default probe-directional counter test can
    flip borderline pairs either way under *any* re-interleaving of
    arrivals (sharded or not), which would make the 1.0 gate flaky on
    adversarial workloads.
    """
    return RunConfig(
        policy="fixed", initial_state=JoinState.LAP_RAP, verify_jaccard=True
    )


def recall_probe(dataset, shard_counts, partitioners=RECALL_PARTITIONERS):
    """Per-partitioner recall on an all-approximate workload (serial).

    The MAR timing sweep entangles partitioning losses with per-shard
    schedule divergence (every shard runs its own control loop); this
    probe removes the schedule — a fixed all-approximate run loses
    exactly the pairs its partitioner separates.  Returns one row per
    shard count mapping partitioner → recall / match counts (raw and
    deduped) plus each replicated partitioner's replication factor, and
    asserts the replication bar: gram-prefix recall must be exactly 1.0
    at every probed shard count.
    """
    config = all_approximate_config()
    reference = JoinSession(dataset.parent, dataset.child, "location", config).run()
    reference_pairs = frozenset(reference.matched_pairs())
    rows = []
    for shards in shard_counts:
        row = {"shards": shards}
        for name in partitioners:
            result = run_sharded(
                dataset.parent, dataset.child, "location", config,
                shards=shards, partitioner=name,
            )
            found_pairs = result.pair_set()
            stats = {
                "match_recall_vs_unsharded": _recall(
                    found_pairs, reference_pairs
                ),
                "matches": result.result_size,
                "raw_matches": result.raw_result_size,
            }
            if (
                result.raw_result_size != result.result_size
                or name in REPLICATED_PARTITIONERS
            ):
                left_factor, right_factor = result.replication_factors()
                stats["replication_factor"] = round(
                    (left_factor + right_factor) / 2, 2
                )
            row[name] = stats
            # The gate compares pair *sets*, not the rounded stat: one
            # lost pair must fail even when it rounds to 1.0, and one
            # spurious extra pair is just as much a divergence.
            if (
                name in REPLICATED_PARTITIONERS
                and found_pairs != reference_pairs
            ):
                lost = len(reference_pairs - found_pairs)
                extra = len(found_pairs - reference_pairs)
                raise AssertionError(
                    f"{name} partitioner diverged from the unsharded match "
                    f"set at {shards} shards: {lost} lost, {extra} extra"
                )
        rows.append(row)
        print(
            f"[recall probe, {shards} shard(s)] " + " ".join(
                f"{name}={row[name]['match_recall_vs_unsharded']}"
                for name in partitioners
            ) + "".join(
                f" {name}_factor={row[name]['replication_factor']}"
                for name in partitioners
                if "replication_factor" in row[name]
            )
        )
    return rows


def bench_shard_counts(
    dataset, config, shard_counts, backends, partitioner: str = "hash",
    handoff: str = "auto",
) -> List[Dict]:
    # Unsharded reference: the completeness and determinism oracle.
    started = time.perf_counter()
    reference = JoinSession(dataset.parent, dataset.child, "location", config).run()
    unsharded_seconds = time.perf_counter() - started
    reference_pairs = frozenset(reference.matched_pairs())

    entries: List[Dict] = []
    for shards in shard_counts:
        # Two plans for the handoff accounting: what the process backend
        # would ship per shard task under each representation.  The
        # pickle build also baselines the shared-memory build so the
        # recorded handoff_seconds is the *extra* one-time cost of the
        # zero-copy path: join-key encode (the build delta) + segment
        # publish (allocate + copy), paid once per side per run.
        build_started = time.perf_counter()
        pickle_plan = ShardPlan.build(
            dataset.parent, dataset.child, "location", shards,
            partitioner, config=config, handoff="pickle",
        )
        pickle_build_seconds = time.perf_counter() - build_started
        build_started = time.perf_counter()
        plan = ShardPlan.build(
            dataset.parent, dataset.child, "location", shards,
            partitioner, config=config, handoff=handoff,
        )
        build_seconds = time.perf_counter() - build_started
        sizes = plan.shard_sizes()
        payload_bytes = {
            "pickle": max(estimate_shard_payload_bytes(pickle_plan, config)),
        }
        entry: Dict[str, object] = {
            "shards": shards,
            "unsharded_seconds": round(unsharded_seconds, 4),
            "shard_sizes_min": min(left + right for left, right in sizes),
            "shard_sizes_max": max(left + right for left, right in sizes),
            "handoff": plan.handoff,
            "payload_bytes_per_shard": payload_bytes,
        }
        if plan.handoff == "shared-memory":
            payload_bytes["shared-memory"] = max(
                estimate_shard_payload_bytes(plan, config)
            )
            publish_started = time.perf_counter()
            published = plan.publish_blocks()
            publish_seconds = time.perf_counter() - publish_started
            if published is not None:
                published.release()
            entry["handoff_seconds"] = round(
                max(0.0, build_seconds - pickle_build_seconds)
                + publish_seconds,
                4,
            )
        pair_sets = {}
        for backend in backends:
            seconds, result = _run(
                dataset, config, shards, backend, partitioner, handoff
            )
            entry[f"{backend}_seconds"] = round(seconds, 4)
            pair_sets[backend] = result.pair_set()
            if backend == "serial":
                entry["matches"] = result.result_size
                if result.raw_result_size != result.result_size:
                    entry["raw_matches"] = result.raw_result_size
                entry["match_recall_vs_unsharded"] = _recall(
                    pair_sets["serial"], reference_pairs
                )
                # Bit-determinism bar: a repeat serial run must agree.
                _, repeat = _run(
                    dataset, config, shards, "serial", partitioner, handoff
                )
                if repeat.pair_set() != pair_sets["serial"]:
                    raise AssertionError(
                        f"serial backend is not deterministic at {shards} shards"
                    )
        if len(set(pair_sets.values())) != 1:
            raise AssertionError(
                f"backends disagree at {shards} shards: "
                f"{ {name: len(pairs) for name, pairs in pair_sets.items()} }"
            )
        if shards == 1 and pair_sets["serial"] != reference_pairs:
            raise AssertionError("1-shard run diverged from the unsharded session")
        serial_seconds = entry["serial_seconds"]
        for backend in backends:
            if backend != "serial" and entry[f"{backend}_seconds"]:
                entry[f"{backend}_speedup"] = round(
                    serial_seconds / entry[f"{backend}_seconds"], 2
                )
        # Handoff comparison on the multi-core path: the same plan shape
        # through the process backend under each representation must
        # merge identically, and both speedups are recorded so the
        # payload reduction's effect is measured rather than asserted.
        if "process" in backends and plan.handoff == "shared-memory":
            for suffix, mode in (("pickle", "pickle"), ("shm", "shared-memory")):
                seconds, result = _run(
                    dataset, config, shards, "process", partitioner, mode
                )
                if result.pair_set() != pair_sets["serial"]:
                    raise AssertionError(
                        f"process backend under the {mode} handoff diverged "
                        f"from serial at {shards} shards"
                    )
                entry[f"process_seconds_{suffix}"] = round(seconds, 4)
                if seconds:
                    entry[f"process_speedup_{suffix}"] = round(
                        serial_seconds / seconds, 2
                    )
            if live_block_count() != 0:
                raise AssertionError(
                    f"{live_block_count()} shared-memory segment(s) leaked "
                    f"by the process sweep at {shards} shards"
                )
        entries.append(entry)
        print(
            f"[{shards} shard(s)] " + " ".join(
                f"{backend}={entry[f'{backend}_seconds']}s" for backend in backends
            ) + "".join(
                f" {backend}_speedup={entry.get(f'{backend}_speedup')}"
                for backend in backends
                if backend != "serial"
            ) + f" matches={entry['matches']}"
            f" recall_vs_unsharded={entry['match_recall_vs_unsharded']}"
        )
        payload_note = " ".join(
            f"{name}={size}B"
            for name, size in entry["payload_bytes_per_shard"].items()
        )
        print(
            f"    handoff={entry['handoff']} payload/shard: {payload_note}"
            + (
                f" handoff_seconds={entry['handoff_seconds']}"
                if "handoff_seconds" in entry
                else ""
            )
        )
    return entries


def _probe_dataset(total_tuples: int):
    parent_size = total_tuples // 2
    return generate_test_case(
        STANDARD_TEST_CASES["uniform_child"],
        parent_size=parent_size,
        child_size=total_tuples - parent_size,
    )


def run_benchmark(
    total_tuples: int,
    shard_counts,
    backends,
    partitioner: str = "hash",
    recall_probe_tuples: int = RECALL_PROBE_TUPLES,
    handoff: str = "auto",
) -> Dict[str, object]:
    dataset = _probe_dataset(total_tuples)
    config = RunConfig()
    entries = bench_shard_counts(
        dataset, config, shard_counts, backends, partitioner, handoff
    )
    probe_shards = tuple(count for count in shard_counts if count > 1) or (2,)
    return {
        "run_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "total_tuples": total_tuples,
        "policy": config.policy,
        "partitioner": partitioner,
        "handoff": handoff,
        "backends": list(backends),
        # Speedup ratios are only meaningful relative to the cores the
        # run actually had: on a single-core machine process_speedup < 1
        # is the expected pure-overhead reading.
        "cpu_count": os.cpu_count(),
        "entries": entries,
        # Partitioner recall, isolated from adaptive scheduling: an
        # all-approximate workload per shard count, hash vs gram-prefix.
        "recall_probe": {
            "total_tuples": recall_probe_tuples,
            "policy": "fixed (all-approximate, lap/rap)",
            "entries": recall_probe(
                _probe_dataset(recall_probe_tuples), probe_shards
            ),
        },
    }


def zero_copy_smoke(total_tuples: int) -> int:
    """CI gate for the shared-memory handoff (process backend, 2 shards).

    Four bars, all hard failures (exit 1):

    1. a shared-memory run must actually resolve to shared memory and
       merge **bit-identically** (pair order, counters, output records)
       to the pickle run and to the serial backend — representation
       drift is a correctness bug, not noise;
    2. the published blocks must hold one column, the join key: records
       stay in the parent;
    3. the segment registry must drain to zero after the successful run;
    4. it must *also* drain to zero after a fault-injected shard failure
       (the teardown-on-failure path, where a leak would silently
       accumulate across retrying CI jobs).
    """
    if not shared_memory_available():
        print("zero-copy smoke: multiprocessing.shared_memory unavailable")
        return 1
    dataset = _probe_dataset(total_tuples)
    config = RunConfig()
    failures: List[str] = []
    _, pickled = _run(dataset, config, 2, "process", handoff="pickle")
    _, shared = _run(dataset, config, 2, "process", handoff="shared-memory")
    _, serial = _run(dataset, config, 2, "serial")
    if shared.handoff != "shared-memory":
        failures.append(
            f"requested shared-memory handoff resolved to {shared.handoff!r}"
        )
    if shared.matched_pairs() != pickled.matched_pairs():
        failures.append(
            f"handoffs diverged: {len(shared.pair_set() ^ pickled.pair_set())} "
            f"pair(s) differ (or emission order changed)"
        )
    if shared.counters.as_dict() != pickled.counters.as_dict():
        failures.append("operation counters differ between handoffs")
    records = shared.output_records()
    if records != pickled.output_records():
        failures.append("output records differ between handoffs")
    if records != serial.output_records():
        failures.append("output records differ from the serial backend's")
    published = ShardPlan.build(
        dataset.parent, dataset.child, "location", 2, config=config,
        handoff="shared-memory",
    ).publish_blocks()
    try:
        widths = [
            descriptor.schema_attributes for descriptor in published.descriptors
        ]
    finally:
        published.release()
    if widths != [("location",), ("location",)]:
        failures.append(f"published blocks hold {widths}, not the join key")
    if live_block_count() != 0:
        failures.append(
            f"{live_block_count()} segment(s) leaked after the successful "
            f"run: {', '.join(live_block_names())}"
        )
    try:
        run_sharded(
            dataset.parent, dataset.child, "location", config,
            shards=2, backend="process", handoff="shared-memory",
            faults=FaultPlan.crash(0, attempts=None),
        )
    except ShardExecutionError:
        pass
    else:
        failures.append("injected shard crash did not fail the run")
    if live_block_count() != 0:
        failures.append(
            f"{live_block_count()} segment(s) leaked on the failure path"
        )
    if failures:
        for failure in failures:
            print(f"zero-copy smoke FAILED: {failure}")
        return 1
    print(
        f"zero-copy smoke passed: process backend, 2 shards, "
        f"{shared.result_size} matches and output records bit-identical "
        f"across handoffs and to serial, join-key blocks, "
        f"0 live segments after success and failure"
    )
    return 0


def append_trajectory(result: Dict[str, object], output: Path) -> None:
    trajectory = []
    if output.exists():
        try:
            trajectory = json.loads(output.read_text())
        except (ValueError, OSError):
            trajectory = []
        if not isinstance(trajectory, list):
            trajectory = [trajectory]
    trajectory.append(result)
    output.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"trajectory appended to {output} ({len(trajectory)} runs recorded)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, fast configuration for CI (1 vs 2 shards, serial backend)",
    )
    parser.add_argument(
        "--recall-smoke",
        action="store_true",
        help="CI recall-preservation gate: run only the all-approximate "
             "recall probe (hash vs gram-prefix, 2 shards) and fail "
             "unless gram-prefix recall is exactly 1.0; appends nothing",
    )
    parser.add_argument(
        "--zero-copy-smoke",
        action="store_true",
        help="CI shared-memory handoff gate: process backend at 2 shards "
             "must merge bit-identically under both handoffs and leak no "
             "segments on the success or failure path; appends nothing",
    )
    parser.add_argument(
        "--partitioner",
        default="hash",
        help="partitioner for the timing sweep (default hash; the recall "
             "probe always compares hash vs gram-prefix)",
    )
    parser.add_argument(
        "--handoff",
        choices=HANDOFF_MODES,
        default="auto",
        help="shard-input representation for the timing sweep (default "
             "auto = shared-memory where available); entries always "
             "record both representations' per-shard payload bytes",
    )
    parser.add_argument(
        "--total-tuples",
        type=int,
        default=None,
        help=f"total tuple count to benchmark (default {DEFAULT_TOTAL_TUPLES})",
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=None,
        help=f"shard counts to sweep (default {list(DEFAULT_SHARD_COUNTS)})",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=None,
        help=f"backends to compare (default {list(DEFAULT_BACKENDS)})",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help="trajectory JSON file to append to",
    )
    args = parser.parse_args(argv)
    if args.shards and any(count < 1 for count in args.shards):
        parser.error("--shards values must be at least 1")
    if args.recall_smoke:
        # The probe raises AssertionError when replicated recall is not 1.0.
        rows = recall_probe(
            _probe_dataset(args.total_tuples or SMOKE_RECALL_PROBE_TUPLES),
            tuple(args.shards) if args.shards else (2,),
        )
        print(f"recall-preservation gate passed ({len(rows)} shard count(s))")
        return 0
    if args.zero_copy_smoke:
        return zero_copy_smoke(args.total_tuples or SMOKE_TOTAL_TUPLES)
    total = args.total_tuples or (
        SMOKE_TOTAL_TUPLES if args.smoke else DEFAULT_TOTAL_TUPLES
    )
    shard_counts = tuple(args.shards) if args.shards else (
        SMOKE_SHARD_COUNTS if args.smoke else DEFAULT_SHARD_COUNTS
    )
    backends = tuple(args.backends) if args.backends else (
        SMOKE_BACKENDS if args.smoke else DEFAULT_BACKENDS
    )
    if "serial" not in backends:
        parser.error("the serial backend is the reference and must be included")
    recall_tuples = (
        SMOKE_RECALL_PROBE_TUPLES if args.smoke else RECALL_PROBE_TUPLES
    )
    result = run_benchmark(
        total, shard_counts, backends, args.partitioner, recall_tuples,
        args.handoff,
    )
    append_trajectory(result, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
