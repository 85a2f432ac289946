#!/usr/bin/env python
"""Fault-injection benchmark and CI smoke for the failure-handling layer.

Drives the seeded :mod:`repro.runtime.faults` harness through the
:class:`~repro.runtime.parallel.ParallelExecutor` and *asserts* the
failure-semantics contracts instead of just timing them — any drift
exits non-zero, which is what makes this file the CI fault-injection
gate.  Three scenarios, all on one shard plan:

* **happy-path overhead** — the same plan run under the default
  fail-fast policy and under a fully-armed ``retry`` policy (3 attempts,
  backoff, per-shard timeout) with *no* faults injected.  Both runs must
  be bit-identical, and the recorded ``overhead_ratio`` (retry-armed
  seconds / fail-fast seconds, best of repeats) is the number
  PERFORMANCE.md cites: arming the failure machinery without failures
  must cost ≈0.
* **retry recovers exactly** — a seeded crash scenario (every injected
  failure clears within the retry budget) plus one hung shard that times
  out on attempt 1 and succeeds on attempt 2.  The merged result must be
  bit-identical (pair set, match list, per-shard final states) to the
  failure-free run: retries are invisible in the output.
* **degrade accounts honestly** — one irrecoverably crashing shard and
  one irrecoverably hung shard under ``degrade``.  The partial result
  must equal the failure-free run restricted to the surviving shards,
  name every dropped shard with the right error type / timeout flag, and
  carry coverage and recall numbers that match the dropped input volume.

Results are appended to ``BENCH_fault_injection.json`` (one entry per
invocation).  Usage::

    PYTHONPATH=src python benchmarks/bench_fault_injection.py          # full
    PYTHONPATH=src python benchmarks/bench_fault_injection.py --smoke  # CI

The full run exercises the process backend on ~8k tuples; ``--smoke``
shrinks the workload to ~2k tuples and finishes in seconds.  Scenario
determinism comes from the fault plan, not the backend: the same seed
replays the identical scenario on any backend (``--backend``).
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict

from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case
from repro.runtime.config import RunConfig
from repro.runtime.failures import DegradePolicy, FailurePolicy, RetryPolicy
from repro.runtime.faults import FaultPlan
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.sharding import ShardPlan, ShardedJoinResult

DEFAULT_TOTAL_TUPLES = 8_000
SMOKE_TOTAL_TUPLES = 2_000
DEFAULT_SHARDS = 4
DEFAULT_BACKEND = "process"
DEFAULT_SEED = 20260807
#: Repeats for the happy-path overhead measurement; the ratio compares
#: best-of-N (the low-noise estimator — medians drift with machine load
#: and read as phantom overhead).  The scenario assertions are
#: deterministic and run once.
OVERHEAD_REPEATS = 5
#: Per-shard timeout that converts the injected hang into a retryable /
#: droppable failure.  Real wall-clock: each hung attempt costs this much.
HANG_TIMEOUT_SECONDS = 0.75
DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_fault_injection.json"
)


def _assert_identical(
    result: ShardedJoinResult, reference: ShardedJoinResult, label: str
) -> None:
    """Bit-identity bar: matches, merged order, per-shard final states."""
    if result.pair_set() != reference.pair_set():
        raise AssertionError(f"{label}: pair set drifted from failure-free run")
    if result.matched_pairs() != reference.matched_pairs():
        raise AssertionError(f"{label}: merged match order drifted")
    states = {s: st.label for s, st in result.final_states.items()}
    expected = {s: st.label for s, st in reference.final_states.items()}
    if states != expected:
        raise AssertionError(f"{label}: per-shard final states drifted")


def _timed_run(
    plan: ShardPlan,
    config: RunConfig,
    backend: str,
    policy: FailurePolicy | None = None,
    faults: FaultPlan | None = None,
):
    executor = ParallelExecutor(
        backend=backend, failure_policy=policy, faults=faults
    )
    started = time.perf_counter()
    result = executor.run(plan, config)
    return time.perf_counter() - started, result


def happy_path_overhead(
    plan: ShardPlan, config: RunConfig, backend: str, reference
) -> Dict[str, object]:
    """Fail-fast vs retry-armed with no faults: identical output, ≈0 cost."""
    armed = RetryPolicy(
        max_attempts=3, backoff_seconds=0.5, shard_timeout_seconds=30.0
    )
    plain_seconds, armed_seconds = [], []
    for _ in range(OVERHEAD_REPEATS):
        seconds, plain = _timed_run(plan, config, backend)
        plain_seconds.append(seconds)
        seconds, guarded = _timed_run(plan, config, backend, policy=armed)
        armed_seconds.append(seconds)
        _assert_identical(plain, reference, "happy-path fail-fast")
        _assert_identical(guarded, reference, "happy-path retry-armed")
        if guarded.degraded or guarded.failed_shards:
            raise AssertionError("retry-armed happy path reported failures")
    plain_best = min(plain_seconds)
    armed_best = min(armed_seconds)
    entry = {
        "fail_fast_seconds": round(plain_best, 4),
        "retry_armed_seconds": round(armed_best, 4),
        "overhead_ratio": round(armed_best / plain_best, 3)
        if plain_best
        else None,
        "repeats": OVERHEAD_REPEATS,
    }
    print(
        f"[happy-path overhead] fail-fast={entry['fail_fast_seconds']}s "
        f"retry-armed={entry['retry_armed_seconds']}s "
        f"ratio={entry['overhead_ratio']}"
    )
    return entry


def retry_recovers_exactly(
    plan: ShardPlan, config: RunConfig, backend: str, seed: int, reference
) -> Dict[str, object]:
    """Seeded crashes + one hang, all clearing within the retry budget."""
    # Hang first: when two specs target the same (shard, attempt) the
    # first in declaration order wins, and the hang must actually fire.
    faults = FaultPlan.hang(0, attempts=(1,)) + FaultPlan.seeded(
        seed,
        shard_count=plan.shard_count,
        fail_probability=0.75,
        max_failed_attempts=2,
        max_after_batches=2,
    )
    policy = RetryPolicy(
        max_attempts=3, shard_timeout_seconds=HANG_TIMEOUT_SECONDS
    )
    seconds, result = _timed_run(
        plan, config, backend, policy=policy, faults=faults
    )
    if result.degraded or result.failed_shards:
        raise AssertionError(
            "retry scenario lost shards the budget should have recovered"
        )
    _assert_identical(result, reference, "retry recovery")
    entry = {
        "seconds": round(seconds, 4),
        "injected_faults": len(faults.faults),
        "matches": result.result_size,
    }
    print(
        f"[retry recovers] {entry['injected_faults']} injected fault(s) "
        f"cleared in {entry['seconds']}s — bit-identical"
    )
    return entry


def degrade_accounts_honestly(
    plan: ShardPlan, config: RunConfig, backend: str
) -> Dict[str, object]:
    """Irrecoverable crash + hang under degrade: partial but never lying."""
    crashed, hung = 1, plan.shard_count - 1
    faults = FaultPlan.crash(crashed, attempts=None) + FaultPlan.hang(
        hung, attempts=None
    )
    policy = DegradePolicy(shard_timeout_seconds=HANG_TIMEOUT_SECONDS)
    seconds, result = _timed_run(
        plan, config, backend, policy=policy, faults=faults
    )
    if not result.degraded:
        raise AssertionError("degrade scenario did not report degradation")
    dropped = {failure.shard_id: failure for failure in result.failed_shards}
    if set(dropped) != {crashed, hung}:
        raise AssertionError(
            f"degrade dropped shards {sorted(dropped)}, "
            f"expected {sorted((crashed, hung))}"
        )
    if dropped[crashed].error_type != "InjectedFaultError":
        raise AssertionError(
            f"crashed shard reported {dropped[crashed].error_type!r}, "
            "not the injected error"
        )
    if not dropped[hung].timed_out:
        raise AssertionError("hung shard was not accounted as a timeout")

    # The surviving shards must carry exactly the failure-free run
    # restricted to them — degradation may lose shards, never corrupt them.
    survivors = [s for s in range(plan.shard_count) if s not in dropped]
    restricted = ParallelExecutor(backend="serial").run(
        plan.subset(survivors), config
    )
    if result.pair_set() != restricted.pair_set():
        raise AssertionError("degraded result drifted from surviving shards")

    # Honest accounting: coverage must equal the surviving input volume.
    lost_left = sum(f.left_records for f in result.failed_shards)
    lost_right = sum(f.right_records for f in result.failed_shards)
    total_left = sum(len(s.records) for s in plan.left_shards)
    total_right = sum(len(s.records) for s in plan.right_shards)
    left_cov, right_cov = result.coverage()
    if left_cov != (total_left - lost_left) / total_left:
        raise AssertionError("left coverage does not match dropped records")
    if right_cov != (total_right - lost_right) / total_right:
        raise AssertionError("right coverage does not match dropped records")
    recall = result.estimated_recall()
    if not 0.0 <= recall < 1.0:
        raise AssertionError(f"degraded recall estimate {recall} out of range")
    entry = {
        "seconds": round(seconds, 4),
        "dropped_shards": sorted(dropped),
        "estimated_recall": round(recall, 4),
        "coverage": [round(left_cov, 4), round(right_cov, 4)],
        "matches": result.result_size,
    }
    print(
        f"[degrade accounts] dropped={entry['dropped_shards']} "
        f"recall≈{entry['estimated_recall']} in {entry['seconds']}s — honest"
    )
    return entry


def run_benchmark(
    total_tuples: int, shards: int, backend: str, seed: int
) -> Dict[str, object]:
    parent_size = total_tuples // 2
    dataset = generate_test_case(
        STANDARD_TEST_CASES["uniform_child"],
        parent_size=parent_size,
        child_size=total_tuples - parent_size,
    )
    config = RunConfig()
    plan = ShardPlan.build(
        dataset.parent, dataset.child, "location", shards, "hash",
        config=config,
    )
    # The failure-free oracle every scenario is measured against.
    reference = ParallelExecutor(backend="serial").run(plan, config)
    return {
        "run_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "total_tuples": total_tuples,
        "shards": shards,
        "backend": backend,
        "fault_seed": seed,
        "happy_path": happy_path_overhead(plan, config, backend, reference),
        "retry": retry_recovers_exactly(plan, config, backend, seed, reference),
        "degrade": degrade_accounts_honestly(plan, config, backend),
    }


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
        help="small, fast configuration for CI (~2k tuples)",
    )
    parser.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        help=f"execution backend for the scenarios (default {DEFAULT_BACKEND})",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=DEFAULT_SHARDS,
        help=f"shard count (default {DEFAULT_SHARDS}; minimum 3 so the "
             "degrade scenario keeps a survivor)",
    )
    parser.add_argument(
        "--total-tuples",
        type=int,
        default=None,
        help=f"total tuple count (default {DEFAULT_TOTAL_TUPLES}, "
             f"smoke {SMOKE_TOTAL_TUPLES})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for the injected crash scenario",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help="trajectory JSON file to append to",
    )
    args = parser.parse_args(argv)
    if args.shards < 3:
        parser.error("--shards must be at least 3")
    total = args.total_tuples or (
        SMOKE_TOTAL_TUPLES if args.smoke else DEFAULT_TOTAL_TUPLES
    )
    result = run_benchmark(total, args.shards, args.backend, args.seed)
    append_trajectory(result, args.output)
    print("fault-injection gate passed (retry exact, degrade honest)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
