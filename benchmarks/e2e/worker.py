"""One workload, in this process: set-up, warm-up, measured ops, oracle.

``run.py --worker`` runs one workload per process (a fresh interpreter, so
``peak_rss_mb`` is the workload's own and nothing is cached across
workloads).  The untraced pass lives here; the traced pass is
:func:`layers.traced_pass`, which reuses the phases below.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import httpload
import workloads

#: Set-up runs this many times per untraced run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Fewest measured ops of a timed run, however long one op takes.
MIN_OPS = 3
HTTP_CLIENTS = 2
#: Most measured ops of a timed HTTP run.  The server keeps every job it
#: has served (match buffers, JSONL log), so its resident set grows with
#: the job count: without a cap a *faster* server would serve more jobs in
#: ``--seconds`` and read as a ``peak_rss_mb`` regression.  At today's
#: ~6 jobs/s the cap, not the clock, ends the phase.
HTTP_MAX_OPS = 80


class Tally:
    """What the ops of one phase produced: timings, failures, recall counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.seconds: List[float] = []
        self.tuples = 0
        self.hits = 0
        self.truth = 0

    def record(
        self, prepared, index: int, seconds: float, pairs, what: str = "op"
    ) -> None:
        """Count one completed op and run the oracle on its pairs."""
        self.attempted += 1
        problems = workloads.verify(prepared, index, pairs)
        if problems:
            self.failures.append(f"{what} {self.attempted}: " + "; ".join(problems))
            return
        reference = prepared.references[index]
        self.seconds.append(seconds)
        self.tuples += prepared.tuples[index]
        self.hits += reference.recall_hits(pairs)
        self.truth += len(reference.true_pairs)

    def fail(self, message: str) -> None:
        """Count one op that raised, timed out or was refused."""
        self.attempted += 1
        self.failures.append(message)


def set_up(workload, args, repeats: int):
    """Run set-up ``repeats`` times; keep the last one, time them all."""
    prepared, seconds = None, []
    for _ in range(repeats):
        if prepared is not None:
            prepared.close()
        started = time.perf_counter()
        prepared = workloads.prepare(
            workload, args.seed, args.smoke, Path(args.work_dir)
        )
        seconds.append(time.perf_counter() - started)
    return prepared, seconds


def timed_library_op(workload, prepared, tally: Tally, run=None) -> None:
    """Build the job, time ``run`` (default ``JobHandle.run``) and tally it."""
    handle = workloads.build_handle(workload, prepared.datasets[0])
    started = time.perf_counter()
    try:
        pairs = run(handle) if run is not None else handle.run().pairs
    except Exception:  # the op failed; the benchmark reports it and goes on
        tally.fail("op raised:\n" + traceback.format_exc(limit=8))
        return
    tally.record(prepared, 0, time.perf_counter() - started, pairs)


def library_phase(
    workload, prepared, seconds: float, fixed_ops: Optional[int]
) -> Tally:
    """Measured ops back to back: ``fixed_ops`` of them, or for ``seconds``.

    A timed phase starts another op only while at least half of it is
    expected to fit, so the phase length stays within half an op of
    ``seconds``.
    """
    tally = Tally()
    started = time.perf_counter()
    while True:
        timed_library_op(workload, prepared, tally)
        if fixed_ops is not None:
            if tally.attempted >= fixed_ops:
                break
        elif tally.attempted >= MIN_OPS:
            typical = statistics.median(tally.seconds) if tally.seconds else 0.0
            if time.perf_counter() - started + typical / 2 > seconds:
                break
    return tally


def http_phase(
    prepared, should_start: Callable[[int, float], bool], with_status: bool = False
):
    """One closed-loop phase against the server; returns tally, wall, samples."""
    samples, errors, wall = httpload.closed_loop(
        prepared.server.address,
        prepared.payloads,
        HTTP_CLIENTS,
        should_start,
        with_status,
    )
    tally = Tally()
    for error in errors:
        tally.fail(error)
    for sample in samples:
        tally.record(prepared, sample.payload_index, sample.seconds, sample.pairs())
    return tally, wall, samples


def stop_server(prepared, tally: Tally) -> None:
    """Stop the server; a leaked shared-memory block fails one op."""
    prepared.server.stop()
    leaked = prepared.server.leaked_blocks
    if leaked != 0 and len(tally.failures) < tally.attempted:
        tally.failures.append(f"server reported {leaked} live shared-memory blocks")


def peak_rss_mb(http: bool) -> float:
    """``ru_maxrss`` of the process under test, in MiB.

    The worker itself for library workloads; for the HTTP workload the
    largest waited-for child, which is the server.
    """
    who = resource.RUSAGE_CHILDREN if http else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced_pass(workload, args) -> Dict[str, object]:
    """Set up, warm up, measure; the end-to-end metrics of one workload."""
    prepared, setup_seconds = set_up(workload, args, SETUP_REPEATS)
    try:
        if workload.http:
            warmup = 2 if args.smoke else 4
            http_phase(prepared, lambda claimed, elapsed: claimed < warmup)
            if args.smoke:
                tally, wall, _ = http_phase(prepared, lambda claimed, _: claimed < 8)
            else:
                tally, wall, _ = http_phase(
                    prepared,
                    lambda claimed, elapsed: claimed < HTTP_MAX_OPS
                    and elapsed < args.seconds,
                )
            stop_server(prepared, tally)
        else:
            warmup = 1
            timed_library_op(workload, prepared, Tally())
            tally = library_phase(
                workload, prepared, args.seconds, 2 if args.smoke else None
            )
    finally:
        prepared.close()
    good = bool(tally.seconds)
    op_p50 = statistics.median(tally.seconds) if good else None
    if not good:
        throughput = None
    elif workload.http:
        throughput = tally.tuples / wall
    else:
        # One client, ops back to back: tuples per op over the median op
        # time, which a slow outlier op cannot move the way it moves the
        # phase's mean.
        throughput = prepared.tuples[0] / op_p50
    return {
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures,
        "warmup_ops": warmup,
        "samples": {"op_s": tally.seconds, "setup_s": setup_seconds},
        "metrics": {
            "setup_s": statistics.median(setup_seconds),
            "op_p50_s": op_p50,
            "tuples_per_s": throughput,
            "recall": tally.hits / tally.truth if good else None,
            "peak_rss_mb": peak_rss_mb(workload.http),
            "failed_fraction": len(tally.failures) / tally.attempted,
        },
    }
