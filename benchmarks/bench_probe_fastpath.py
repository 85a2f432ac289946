#!/usr/bin/env python
"""Trajectory benchmark for the fast-path probe pipeline.

Measures, at several input scales (default 5k and 20k total tuples):

* the **probe path** — time to index one side and probe it with a fixed
  sample of values, for the fast-path :class:`~repro.joins.base.SideState`
  vs. the pre-refactor reference
  (:class:`~repro.joins.fastpath.NaiveQGramProber`), asserting that both
  return identical match lists (ordinals, similarities and order) and
  that, with the length filter off, both count identical
  :class:`~repro.joins.base.OperationCounters`;
* the **length-filter ablation** — the fast probe with the Jaccard length
  filter on vs. off;
* **end-to-end runs** — exact (SHJoin), approximate (SSHJoin) and adaptive
  joins over the same generated dataset;
* the **session overhead** — the runtime layer's tax: the same all-exact
  join driven by a bare ``SymmetricJoinEngine`` loop vs. a ``JoinSession``
  (event bus + monitor/trace subscribers + fixed policy).  The acceptance
  bar is ≤ 5 % on the end-to-end adaptive timings across trajectory
  entries (see PERFORMANCE.md).

Results are appended to a ``BENCH_probe_fastpath.json`` trajectory file
(one entry per invocation) so future PRs can track regressions.

Usage::

    PYTHONPATH=src python benchmarks/bench_probe_fastpath.py           # full
    PYTHONPATH=src python benchmarks/bench_probe_fastpath.py --smoke   # CI

The smoke run uses one small scale and finishes well under a minute; see
PERFORMANCE.md for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List

from repro.runtime.adaptive import AdaptiveJoinProcessor
from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case
from repro.engine.streams import TableStream
from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinAttribute, JoinSide, SideState
from repro.joins.engine import SymmetricJoinEngine
from repro.joins.fastpath import NaiveQGramProber
from repro.joins.shjoin import SHJoin
from repro.joins.sshjoin import SSHJoin
from repro.runtime.config import RunConfig
from repro.runtime.session import JoinSession

DEFAULT_SIZES = (5_000, 20_000)
SMOKE_SIZES = (2_000,)
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_probe_fastpath.json"
SIMILARITY_THRESHOLD = 0.85
PROBE_SAMPLE = 2_000

_VALUE_SCHEMA = Schema(["value"], name="bench")


def _probe_records(values: List[str]) -> List[Record]:
    return [Record(_VALUE_SCHEMA, {"value": value}) for value in values]


def bench_probe_path(
    stored_values: List[str], probe_values: List[str]
) -> Dict[str, object]:
    """Index + probe timings: fast path (filter on/off) vs. naive reference."""
    records = _probe_records(stored_values)

    def run_fast(use_length_filter: bool = True):
        """Index + probe with phases timed separately.

        The combined total (indexing + first probe pass) is reported for
        trajectory continuity, the probe phase on its own as the best of
        two identical passes — the second runs with warm probe-plan
        caches, so the figure reflects steady-state probing and suppresses
        load noise (the naive reference gets the same two-pass treatment).
        """
        side = SideState(JoinSide.LEFT, "value")
        for record in records:
            side.add(record)
        started = time.perf_counter()
        side.catch_up_qgram()
        indexed = time.perf_counter()
        probe_seconds = None
        for _ in range(2):
            pass_started = time.perf_counter()
            pairs = []
            for probe in probe_values:
                for stored, similarity in side.probe_qgram(
                    probe,
                    SIMILARITY_THRESHOLD,
                    use_length_filter=use_length_filter,
                ):
                    pairs.append((stored.ordinal, similarity))
            elapsed = time.perf_counter() - pass_started
            if probe_seconds is None:
                first_probe = elapsed
            probe_seconds = elapsed if probe_seconds is None else min(
                probe_seconds, elapsed
            )
        return indexed - started, first_probe, probe_seconds, pairs, side

    fast_index, fast_probe, fast_best_probe, fast_pairs, fast_side = run_fast()
    fast_seconds = fast_index + fast_probe
    nofilter_index, nofilter_probe, _, nofilter_pairs, nofilter_side = run_fast(
        use_length_filter=False
    )
    nofilter_seconds = nofilter_index + nofilter_probe

    naive = NaiveQGramProber()
    started = time.perf_counter()
    for value in stored_values:
        naive.add(value)
    naive_indexed = time.perf_counter()
    naive_probe = None
    for _ in range(2):
        pass_started = time.perf_counter()
        naive_pairs = []
        for probe in probe_values:
            naive_pairs.extend(naive.probe(probe, SIMILARITY_THRESHOLD))
        elapsed = time.perf_counter() - pass_started
        if naive_probe is None:
            naive_first_probe = elapsed
        naive_probe = elapsed if naive_probe is None else min(naive_probe, elapsed)
    naive_seconds = (naive_indexed - started) + naive_first_probe

    if fast_pairs != naive_pairs or nofilter_pairs != naive_pairs:
        raise AssertionError(
            "fast-path probe diverged from the naive reference "
            f"({len(fast_pairs)}/{len(nofilter_pairs)}/{len(naive_pairs)} matches)"
        )
    # Both ran the same inserts and the same two probe passes.
    if nofilter_side.counters.as_dict() != naive.counters.as_dict():
        raise AssertionError(
            "fast-path operation counters diverged from the naive reference: "
            f"{nofilter_side.counters.as_dict()} != {naive.counters.as_dict()}"
        )
    return {
        "stored": len(stored_values),
        "probes": len(probe_values),
        "matches": len(fast_pairs),
        "fast_seconds": round(fast_seconds, 4),
        "fast_index_seconds": round(fast_index, 4),
        "fast_probe_seconds": round(fast_best_probe, 4),
        "fast_no_length_filter_seconds": round(nofilter_seconds, 4),
        "naive_seconds": round(naive_seconds, 4),
        "naive_probe_seconds": round(naive_probe, 4),
        "speedup": round(naive_seconds / fast_seconds, 2) if fast_seconds else None,
        "length_filter_disabled": fast_side.length_filter_disabled,
    }


def bench_end_to_end(dataset) -> Dict[str, float]:
    """Wall-clock of the three whole-input strategies over ``dataset``."""
    timings: Dict[str, float] = {}

    started = time.perf_counter()
    exact = SHJoin(dataset.parent, dataset.child, "location")
    exact.run()
    timings["exact_seconds"] = round(time.perf_counter() - started, 4)

    started = time.perf_counter()
    approx = SSHJoin(
        dataset.parent,
        dataset.child,
        "location",
        similarity_threshold=SIMILARITY_THRESHOLD,
    )
    approx.run()
    timings["approximate_seconds"] = round(time.perf_counter() - started, 4)

    started = time.perf_counter()
    processor = AdaptiveJoinProcessor(dataset.parent, dataset.child, "location")
    processor.run()
    timings["adaptive_seconds"] = round(time.perf_counter() - started, 4)
    return timings


def bench_session_overhead(dataset, repeats: int = 3) -> Dict[str, object]:
    """Runtime-layer tax: bare engine loop vs. JoinSession (fixed policy).

    Both runs execute the identical all-exact join (cheapest per-step work,
    so the per-step session cost — bus dispatch into the monitor, trace and
    match-accumulation subscribers — is maximally visible).  The best of
    ``repeats`` runs is reported for each side to suppress scheduler noise.
    """
    attribute = JoinAttribute("location", "location")

    def run_engine() -> float:
        engine = SymmetricJoinEngine(
            TableStream(dataset.parent), TableStream(dataset.child), attribute
        )
        started = time.perf_counter()
        engine.run_to_completion()
        return time.perf_counter() - started

    def run_session() -> float:
        session = JoinSession(
            dataset.parent,
            dataset.child,
            "location",
            RunConfig(policy="fixed"),
        )
        started = time.perf_counter()
        session.run()
        return time.perf_counter() - started

    engine_seconds = min(run_engine() for _ in range(repeats))
    session_seconds = min(run_session() for _ in range(repeats))
    return {
        "engine_seconds": round(engine_seconds, 4),
        "session_seconds": round(session_seconds, 4),
        "overhead_fraction": (
            round(session_seconds / engine_seconds - 1.0, 4)
            if engine_seconds
            else None
        ),
    }


def run_benchmark(sizes, probe_sample: int) -> Dict[str, object]:
    entries = []
    for total_size in sizes:
        parent_size = total_size // 2
        child_size = total_size - parent_size
        dataset = generate_test_case(
            STANDARD_TEST_CASES["uniform_child"],
            parent_size=parent_size,
            child_size=child_size,
        )
        stored_values = [record["location"] for record in dataset.parent.records]
        probe_values = [record["location"] for record in dataset.child.records]
        probe_values = probe_values[:probe_sample]

        entry: Dict[str, object] = {"total_tuples": total_size}
        entry["probe_path"] = bench_probe_path(stored_values, probe_values)
        entry["end_to_end"] = bench_end_to_end(dataset)
        entry["session_overhead"] = bench_session_overhead(dataset)
        entries.append(entry)

        probe = entry["probe_path"]
        overhead = entry["session_overhead"]
        print(
            f"[{total_size:>6} tuples] probe path: fast={probe['fast_seconds']}s "
            f"naive={probe['naive_seconds']}s speedup={probe['speedup']}x "
            f"(no-length-filter={probe['fast_no_length_filter_seconds']}s); "
            f"probe phase: fast={probe['fast_probe_seconds']}s "
            f"naive={probe['naive_probe_seconds']}s; "
            f"end-to-end: {entry['end_to_end']}; "
            f"session overhead: {overhead['overhead_fraction']} "
            f"(engine={overhead['engine_seconds']}s "
            f"session={overhead['session_seconds']}s)"
        )
    return {
        "run_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "similarity_threshold": SIMILARITY_THRESHOLD,
        "entries": entries,
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
        help="small, fast configuration for CI (single 2k-tuple scale)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help=f"total tuple counts to benchmark (default {list(DEFAULT_SIZES)})",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help="trajectory JSON file to append to",
    )
    parser.add_argument(
        "--overhead-gate",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "fail (exit 1) if any entry's session overhead_fraction exceeds "
            "this value — the CI regression gate for the batch-dispatch "
            "runtime path"
        ),
    )
    args = parser.parse_args(argv)
    if args.sizes is not None:
        if any(size < 2 for size in args.sizes):
            parser.error("--sizes values must be at least 2 (one tuple per side)")
        sizes = tuple(args.sizes)
    elif args.smoke:
        sizes = SMOKE_SIZES
    else:
        sizes = DEFAULT_SIZES
    probe_sample = 500 if args.smoke else PROBE_SAMPLE
    result = run_benchmark(sizes, probe_sample)
    append_trajectory(result, args.output)
    if args.overhead_gate is not None:
        breaches = [
            (entry["total_tuples"], entry["session_overhead"]["overhead_fraction"])
            for entry in result["entries"]
            if (entry["session_overhead"]["overhead_fraction"] or 0.0)
            > args.overhead_gate
        ]
        if breaches:
            for total, fraction in breaches:
                print(
                    f"OVERHEAD GATE BREACHED: {fraction} > {args.overhead_gate} "
                    f"at {total} tuples"
                )
            return 1
        print(f"overhead gate OK (≤ {args.overhead_gate} at every scale)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
