"""Command-line interface.

The sub-commands cover the workflows a downstream user needs without
writing Python:

``generate``
    Materialise one of the standard evaluation test cases (or a custom
    combination of pattern / variant placement / sizes) as two CSV files
    plus a ground-truth pair list.

``link``
    Link two CSV files on a join attribute with a chosen strategy (exact,
    approximate, blocking or adaptive) and write the matched pairs to CSV.
    The adaptive strategy accepts ``--policy`` (any registered switch
    policy: ``mar``, ``fixed``, ``budget-greedy``, ``deadline``, …),
    ``--budget`` (a relative cost cap), ``--deadline`` (a wall-clock cap)
    and sharded execution via ``--shards`` / ``--backend`` /
    ``--partitioner`` (``--backend process`` runs the shards on a
    worker-process pool).  Shard failures are governed by
    ``--on-failure`` (``fail-fast`` aborts — the default; ``retry``
    re-runs failed shards with ``--retries`` re-attempts; ``degrade``
    drops irrecoverable shards and reports the loss) and
    ``--shard-timeout`` (a wall-clock bound per shard attempt).  A
    degraded run reports the dropped shards and an estimated recall on
    stderr and exits with code 3; a failed run exits with code 1.  Runs
    execute through the jobs layer
    (:mod:`repro.jobs`): ``--stream`` emits matches on stdout as NDJSON
    *while they are found* instead of waiting for the run, and
    ``--progress`` prints a live stderr ticker (steps / matches / shards
    / elapsed).

``experiment``
    Run the full gain/cost experiment (all three strategies) for a standard
    test case and print the Fig. 6 / Fig. 7 rows; optionally dump the
    machine-readable outcome to JSON.

``calibrate``
    Measure the cost-model weights of Sec. 4.3 on this machine.

``serve``
    Run the linkage HTTP server (:mod:`repro.server`): submit JSON job
    specs over ``POST /jobs``, watch them via ``GET /jobs/{id}``, stream
    NDJSON matches from ``GET /jobs/{id}/matches`` (byte-identical to
    ``repro link --stream``) and cancel with ``DELETE``.  ``--store``
    makes jobs survive restarts: a relaunched server lists prior jobs
    and automatically resumes interrupted ones.  SIGTERM/SIGINT shut it
    down cleanly (running jobs stop at the next batch boundary; their
    completed shards are already on disk).

Run ``python -m repro.cli --help`` (or any sub-command with ``--help``) for
the full option list.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from typing import Optional, Sequence

from repro.bench.calibration import calibrate_weights
from repro.devtools.lint import DEFAULT_WAIVER_FILE
from repro.devtools.lint import run as run_lint
from repro.bench.export import outcome_to_dict
from repro.bench.harness import run_experiment
from repro.bench.reporting import format_mapping, format_table
from repro.core.thresholds import Thresholds
from repro.datagen.patterns import STANDARD_PATTERNS
from repro.datagen.testcases import (
    STANDARD_TEST_CASES,
    TestCaseSpec,
    generate_test_case,
)
from repro.engine.table import Table
from repro.jobs import JobHandle, LinkageJob, StreamedMatch
from repro.linkage.api import STRATEGIES
from repro.runtime.errors import ShardError
from repro.runtime.failures import available_failure_policies
from repro.runtime.faults import FaultPlan
from repro.runtime.handoff import HANDOFF_MODES
from repro.runtime.parallel import available_backends
from repro.runtime.handoff import live_block_count
from repro.runtime.policy import available_policies
from repro.runtime.sharding import available_partitioners
from repro.server import JobScheduler, JsonlJobStore, LinkageServer

#: Seconds between live ``--progress`` ticker lines on stderr.
_PROGRESS_TICK_SECONDS = 0.5


def _add_threshold_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by the commands that run the adaptive join."""
    parser.add_argument("--theta-sim", type=float, default=0.85,
                        help="similarity threshold of the approximate operator")
    parser.add_argument("--delta-adapt", type=int, default=100,
                        help="steps between control-loop activations")
    parser.add_argument("--window-size", type=int, default=100,
                        help="sliding-window size W")
    parser.add_argument("--theta-out", type=float, default=0.05,
                        help="outlier-detection threshold")
    parser.add_argument("--theta-curpert", type=float, default=2.0,
                        help="current-perturbation threshold")
    parser.add_argument("--theta-pastpert", type=float, default=5.0,
                        help="past-perturbation threshold")
    parser.add_argument("--policy", choices=available_policies(), default="mar",
                        help="switch policy driving the adaptive run "
                             "(mar = the paper's control loop)")
    parser.add_argument("--budget", type=float, default=None, metavar="FRACTION",
                        help="relative cost budget in (0, 1]: fraction of the "
                             "all-approximate/all-exact cost gap the adaptive "
                             "run may spend before being pinned to exact")
    parser.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                        help="wall-clock budget for the deadline policy: pin "
                             "to exact once the projected completion time "
                             "exceeds it")


def _add_sharding_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments for sharded execution of the adaptive strategy."""
    parser.add_argument("--shards", type=int, default=1,
                        help="split the adaptive run into N partitioned "
                             "sessions and merge their results (1 = unsharded)")
    parser.add_argument("--backend", choices=available_backends(),
                        default="serial",
                        help="where shard sessions run: serial (reference) "
                             "or process (multi-core)")
    parser.add_argument("--partitioner", choices=available_partitioners(),
                        default="hash",
                        help="record-to-shard assignment; hash co-partitions "
                             "both sides by join-key value (exact semantics), "
                             "gram-prefix replicates records across the "
                             "shards owning their frequency-ordered prefix "
                             "grams for full approximate recall (duplicates "
                             "removed at merge)")
    parser.add_argument("--handoff", choices=HANDOFF_MODES, default="auto",
                        help="shard-input representation: pickle copies "
                             "records into every task, shared-memory encodes "
                             "each side once into columnar shared-memory "
                             "blocks and ships only descriptors to process "
                             "workers, auto (default) prefers shared-memory "
                             "and falls back to pickle; results are "
                             "bit-identical either way")


def _add_failure_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments governing shard failures (adaptive strategy only)."""
    parser.add_argument("--on-failure", choices=available_failure_policies(),
                        default="fail-fast",
                        help="what a shard failure does to the run: "
                             "fail-fast aborts on the first failure "
                             "(default), retry re-runs the failed shard, "
                             "degrade drops irrecoverable shards and "
                             "reports the loss (exit code 3)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="re-run a failed shard up to N times before "
                             "giving up (requires --on-failure retry or "
                             "degrade)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock bound per shard attempt; an attempt "
                             "exceeding it counts as a failure and follows "
                             "--on-failure")
    # Undocumented testing hook: crash the given shard's first attempt
    # (deterministically), so the failure paths are drivable end-to-end
    # from the command line and the CI smoke.
    parser.add_argument("--inject-crash", type=int, default=None,
                        metavar="SHARD", help=argparse.SUPPRESS)


def _thresholds_from_args(args: argparse.Namespace) -> Thresholds:
    return Thresholds(
        theta_sim=args.theta_sim,
        delta_adapt=args.delta_adapt,
        window_size=args.window_size,
        theta_out=args.theta_out,
        theta_curpert=args.theta_curpert,
        theta_pastpert=args.theta_pastpert,
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive record linkage (EDBT 2009 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic parent/child test case as CSV"
    )
    generate.add_argument("--test-case", choices=sorted(STANDARD_TEST_CASES),
                          help="one of the paper's eight standard test cases")
    generate.add_argument("--pattern", choices=sorted(STANDARD_PATTERNS),
                          default="few_high", help="perturbation pattern")
    generate.add_argument("--variants-in", choices=("child", "both", "parent"),
                          default="child", help="where variants are injected")
    generate.add_argument("--parent-size", type=int, default=1000)
    generate.add_argument("--child-size", type=int, default=2000)
    generate.add_argument("--variant-rate", type=float, default=0.10)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--parent-output", default="parent.csv")
    generate.add_argument("--child-output", default="child.csv")
    generate.add_argument("--truth-output", default="true_pairs.csv")

    link = subparsers.add_parser("link", help="link two CSV files")
    link.add_argument("left_csv", help="left (parent/reference) table")
    link.add_argument("right_csv", help="right (child) table")
    link.add_argument("--attribute", required=True, help="join attribute name")
    link.add_argument("--strategy", choices=STRATEGIES, default="adaptive")
    link.add_argument("--output", default="matches.csv",
                      help="where to write the matched pairs")
    link.add_argument("--stream", action="store_true",
                      help="emit matches on stdout as NDJSON while they are "
                           "found (adaptive strategy only); the CSV output "
                           "is still written at the end")
    link.add_argument("--progress", action="store_true",
                      help="print a live progress ticker (steps, matches, "
                           "shards, elapsed) to stderr during the run")
    _add_threshold_arguments(link)
    _add_sharding_arguments(link)
    _add_failure_arguments(link)

    experiment = subparsers.add_parser(
        "experiment", help="run the gain/cost experiment for a standard test case"
    )
    experiment.add_argument("--test-case", choices=sorted(STANDARD_TEST_CASES),
                            default="few_high_child")
    experiment.add_argument("--parent-size", type=int, default=1500)
    experiment.add_argument("--child-size", type=int, default=3000)
    experiment.add_argument("--json-output",
                            help="optional path for the machine-readable outcome")
    _add_threshold_arguments(experiment)
    _add_sharding_arguments(experiment)

    calibrate = subparsers.add_parser(
        "calibrate", help="measure the Sec. 4.3 cost-model weights on this machine"
    )
    calibrate.add_argument("--parent-size", type=int, default=600)
    calibrate.add_argument("--child-size", type=int, default=400)
    calibrate.add_argument("--max-steps", type=int, default=400)

    serve = subparsers.add_parser(
        "serve", help="run the linkage HTTP job server (see repro.server)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: loopback only)")
    serve.add_argument("--port", type=int, default=8080,
                       help="port to bind (0 = pick an ephemeral port and "
                            "print it)")
    serve.add_argument("--workers", type=int, default=2,
                       help="shared worker budget: shard sessions running "
                            "concurrently across all jobs")
    serve.add_argument("--max-queued", type=int, default=16,
                       help="admission cap on open (non-terminal) jobs; "
                            "submissions past it get HTTP 429")
    serve.add_argument("--store", default=None, metavar="FILE",
                       help="append-only JSONL job store; jobs survive "
                            "restarts and interrupted ones resume "
                            "automatically (default: in-memory only)")
    # Undocumented testing hooks: slow every engine batch down and
    # shrink the batch so smoke tests can reliably catch a job mid-run
    # (cancel it, SIGTERM us) at a batch boundary.
    serve.add_argument("--shard-delay", type=float, default=0.0,
                       help=argparse.SUPPRESS)
    serve.add_argument("--shard-batch", type=int, default=None,
                       help=argparse.SUPPRESS)

    lint = subparsers.add_parser(
        "lint",
        help="check the repo's architectural invariants (AST-based, "
             "rules RL001–RL006; see ARCHITECTURE.md 'Enforced invariants')",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint "
                           "(e.g. src tests benchmarks examples)")
    lint.add_argument("--format", choices=("text", "github"), default="text",
                      help="diagnostic format (github = Actions inline "
                           "annotations)")
    lint.add_argument("--waivers", default=None, metavar="FILE",
                      help=f"waiver file (default: {DEFAULT_WAIVER_FILE} "
                           f"if present)")
    lint.add_argument("--no-waivers", action="store_true",
                      help="ignore any waiver file")
    lint.add_argument("--show-waived", action="store_true",
                      help="also print waived findings")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules and exit")

    return parser


# -- sub-command implementations -------------------------------------------------


def _command_generate(args: argparse.Namespace) -> int:
    if args.test_case:
        spec = STANDARD_TEST_CASES[args.test_case].scaled(
            args.parent_size, args.child_size
        )
    else:
        spec = TestCaseSpec(
            name="custom",
            pattern=args.pattern,
            variants_in=args.variants_in,
            parent_size=args.parent_size,
            child_size=args.child_size,
            variant_rate=args.variant_rate,
            seed=args.seed,
        )
    dataset = generate_test_case(spec)
    dataset.parent.to_csv(args.parent_output)
    dataset.child.to_csv(args.child_output)
    with open(args.truth_output, "w", encoding="utf-8") as handle:
        handle.write("parent_index,child_index\n")
        for parent_index, child_index in dataset.true_pairs:
            handle.write(f"{parent_index},{child_index}\n")
    print(
        f"wrote {len(dataset.parent)} parent rows to {args.parent_output}, "
        f"{len(dataset.child)} child rows to {args.child_output} "
        f"({dataset.child_variant_count} child variants, "
        f"{dataset.parent_variant_count} parent variants), "
        f"{len(dataset.true_pairs)} true pairs to {args.truth_output}"
    )
    return 0


def _match_json(match: StreamedMatch) -> str:
    """One NDJSON line for a streamed match (the ``--stream`` format).

    Delegates to :meth:`StreamedMatch.to_json` — the one wire mapping the
    CLI and the HTTP server's match feed share byte-for-byte.
    """
    return json.dumps(match.to_json())


def _progress_ticker(handle: JobHandle):
    """Start the stderr progress ticker; returns the stop-and-join hook."""
    stop = threading.Event()

    def tick() -> None:
        while not stop.wait(_PROGRESS_TICK_SECONDS):
            print(f"progress: {handle.progress().describe()}", file=sys.stderr)

    thread = threading.Thread(target=tick, name="progress-ticker", daemon=True)
    thread.start()

    def join() -> None:
        stop.set()
        thread.join()
        # Always print the final reading, even for runs faster than one
        # tick, so --progress output is deterministic enough to test.
        print(f"progress: {handle.progress().describe()}", file=sys.stderr)

    return join


def _command_link(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print(f"error: --shards must be at least 1, got {args.shards}",
              file=sys.stderr)
        return 2
    if args.shards > 1 and args.strategy != "adaptive":
        print("error: --shards is only available with --strategy adaptive",
              file=sys.stderr)
        return 2
    if args.stream and args.strategy != "adaptive":
        print("error: --stream is only available with --strategy adaptive "
              "(the baselines materialise their whole result)",
              file=sys.stderr)
        return 2
    if args.progress and args.strategy != "adaptive":
        print("error: --progress is only available with --strategy adaptive "
              "(the baseline operators publish no progress events)",
              file=sys.stderr)
        return 2
    failure_requested = (
        args.on_failure != "fail-fast"
        or args.retries is not None
        or args.shard_timeout is not None
    )
    if (failure_requested or args.inject_crash is not None) and (
        args.strategy != "adaptive"
    ):
        print("error: --on-failure/--retries/--shard-timeout govern the "
              "sharded execution layer and require --strategy adaptive",
              file=sys.stderr)
        return 2
    if args.retries is not None and args.on_failure == "fail-fast":
        print("error: --retries does not apply to --on-failure fail-fast; "
              "use --on-failure retry (or degrade) to re-run failed shards",
              file=sys.stderr)
        return 2
    if args.retries is not None and args.retries < 0:
        print(f"error: --retries must be >= 0, got {args.retries}",
              file=sys.stderr)
        return 2
    if args.stream and args.backend != "serial":
        print("error: --stream runs the deterministic serial-merge path and "
              "cannot honour --backend "
              f"{args.backend}; drop --stream to use that backend, or drop "
              "--backend to stream",
              file=sys.stderr)
        return 2
    left = Table.from_csv(args.left_csv, name="left")
    right = Table.from_csv(args.right_csv, name="right")
    job = (
        LinkageJob.between(left, right)
        .on(args.attribute)
        .strategy(args.strategy)
        .threshold(args.theta_sim)
        .thresholds(_thresholds_from_args(args))
    )
    if args.strategy == "adaptive":
        job.policy(args.policy, budget=args.budget, seconds=args.deadline)
    if args.shards != 1:
        job.sharded(args.shards, backend=args.backend,
                    partitioner=args.partitioner, handoff=args.handoff)
    if failure_requested:
        job.on_failure(args.on_failure, retries=args.retries,
                       shard_timeout=args.shard_timeout)
    if args.inject_crash is not None:
        job.inject_faults(FaultPlan.crash(args.inject_crash, attempts=(1,)))
    if args.progress:
        job.with_progress()
    handle = job.build()
    join_ticker = None
    if args.progress:
        join_ticker = _progress_ticker(handle)
    try:
        if args.stream:
            stream = handle.stream_matches()
            try:
                for match in stream:
                    print(_match_json(match))
            except BrokenPipeError:
                # The downstream consumer (e.g. `| head`) closed stdout:
                # that is a cancel — keep the partial result, exit clean.
                stream.close()
                # Point the stdout *fd* at devnull so the interpreter's
                # exit-time flush cannot trip over the broken pipe; the
                # sys.stdout object itself is left alone (in-process
                # callers and capture fixtures keep working).
                try:
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, sys.stdout.fileno())
                    os.close(devnull)
                except (OSError, ValueError, AttributeError):
                    pass  # non-fd stdout (test capture): nothing to fix
            result = handle.result()
        else:
            result = handle.run()
    except ShardError as error:
        # fail-fast (or retry exhaustion) aborted the run: the structured
        # error carries the shard id, attempt count and cause.
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if join_ticker is not None:
            join_ticker()
    with open(args.output, "w", encoding="utf-8") as output:
        output.write("left_index,right_index\n")
        for left_index, right_index in result.pairs:
            output.write(f"{left_index},{right_index}\n")
    report = sys.stderr if args.stream else sys.stdout
    print(
        f"{args.strategy}: {result.pair_count} matched pairs written to "
        f"{args.output}",
        file=report,
    )
    if "trace" in result.statistics:
        print(format_mapping(result.statistics["trace"], title="adaptive trace"),
              file=report)
    if "per_shard" in result.statistics:
        print(format_table(result.statistics["per_shard"],
                           title="-- per-shard breakdown --"),
              file=report)
    if result.statistics.get("degraded"):
        # A degraded run never exits 0: the result is partial, and the
        # loss is spelled out — which shards were dropped, why, and what
        # that costs in recall.
        rows = result.statistics["failed_shards"]
        recall = result.statistics["estimated_recall"]
        print(f"warning: degraded run — {len(rows)} shard(s) dropped, "
              f"estimated recall {recall:.1%}",
              file=sys.stderr)
        for row in rows:
            reason = "timeout" if row["timed_out"] else row["error_type"]
            detail = str(row["error"])
            if detail.startswith(f"{row['error_type']}:"):
                detail = detail[len(row["error_type"]) + 1:].strip()
            print(f"  shard {row['shard']}: {reason} after "
                  f"{row['attempts']} attempt(s) — {detail}",
                  file=sys.stderr)
        return 3
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    spec = STANDARD_TEST_CASES[args.test_case]
    outcome = run_experiment(
        spec,
        parent_size=args.parent_size,
        child_size=args.child_size,
        thresholds=_thresholds_from_args(args),
        policy=args.policy,
        budget=args.budget,
        deadline=args.deadline,
        shards=args.shards,
        backend=args.backend,
        partitioner=args.partitioner,
        handoff=args.handoff,
    )
    print(format_table([outcome.fig6_row()], title="-- gain / cost (Fig. 6 row) --"))
    print()
    print(format_table([outcome.fig7_row()], title="-- state breakdown (Fig. 7 row) --"))
    print()
    print(format_mapping(
        {name: seconds for name, seconds in outcome.wall_clock.items()},
        title="-- wall-clock seconds --",
    ))
    if args.json_output:
        with open(args.json_output, "w", encoding="utf-8") as handle:
            json.dump(outcome_to_dict(outcome), handle, indent=2, sort_keys=True)
        print(f"\nmachine-readable outcome written to {args.json_output}")
    return 0


def _command_calibrate(args: argparse.Namespace) -> int:
    calibration = calibrate_weights(
        parent_size=args.parent_size,
        child_size=args.child_size,
        max_steps=args.max_steps,
    )
    print(format_table(calibration.as_rows(),
                       title="-- measured vs paper cost-model weights --"))
    print(f"\nunit (lex/rex) step time: {calibration.unit_step_seconds * 1e6:.1f} µs")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print(f"error: --workers must be at least 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.max_queued < 1:
        print(f"error: --max-queued must be at least 1, got {args.max_queued}",
              file=sys.stderr)
        return 2
    store = JsonlJobStore(args.store) if args.store else None
    scheduler_options = {}
    if args.shard_batch is not None:
        scheduler_options["shard_batch"] = args.shard_batch
    scheduler = JobScheduler(
        max_workers=args.workers,
        max_queued=args.max_queued,
        store=store,
        shard_delay=args.shard_delay,
        **scheduler_options,
    )
    if args.store:
        resumed = scheduler.restore()
        restored = scheduler.job_ids()
        if restored:
            print(f"restored {len(restored)} job(s) from {args.store}"
                  + (f"; resuming {', '.join(resumed)}" if resumed else ""),
                  file=sys.stderr)
        for job_id, reason in scheduler.unrestorable.items():
            print(f"skipped stored job {job_id}: {reason}", file=sys.stderr)
    server = LinkageServer(host=args.host, port=args.port, scheduler=scheduler)
    stop = threading.Event()

    def handle_signal(signum: int, frame: object) -> None:
        del frame
        print(f"received {signal.Signals(signum).name}, shutting down",
              file=sys.stderr, flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)
    server.start()
    # The parseable contract line: smoke tests and scripts read the port
    # off it (mandatory with --port 0).
    print(f"serving on {server.url}", flush=True)
    stop.wait()
    server.shutdown()
    # Shared-memory hygiene: every columnar handoff block must be gone.
    print(f"live shared-memory blocks: {live_block_count()}", flush=True)
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    return run_lint(
        args.paths,
        output_format=args.format,
        waiver_file=args.waivers,
        use_waivers=not args.no_waivers,
        list_rules=args.list_rules,
        show_waived=args.show_waived,
    )


_COMMANDS = {
    "generate": _command_generate,
    "link": _command_link,
    "experiment": _command_experiment,
    "calibrate": _command_calibrate,
    "serve": _command_serve,
    "lint": _command_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
