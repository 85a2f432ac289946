"""The traced pass: per-layer metrics, measured from outside the program.

Two kinds of measurement, both made from this file:

* **spans of a traced op** — the op runs once with the public entry
  points of each layer wrapped (:data:`TARGETS`), so that the spans of the
  layers inside ``JobHandle.run()`` nest under the benchmark's own
  ``jobs.run`` span: ``jobs ⊃ session ⊃ engine``, ``session ⊃ core``,
  ``jobs ⊃ sharding.plan_build + parallel.execute ⊃ handoff.publish``.
  Metrics that describe the op itself (``session.run_s``,
  ``core.assess_s``, ``jobs.overhead_ratio``, ``parallel.execute_s`` …)
  are read off these spans and the op's own statistics.
* **layer probes** — direct timed calls into one layer's public
  functions on the workload's own inputs (tokenise every join value,
  build and probe a ``SideState``, run the bare engine, run a
  fixed-policy session, build a plan, publish its blocks, run the serial
  executor, append to a job store, start the CLI).  Each probe runs under
  a root span of its own, so ``spans.json`` shows them too.

A metric whose layer the workload's op never enters is ``None``
(``null`` in the JSON document), never 0.  Every name below is declared
in ``BENCHMARK.json`` with its unit.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.assessor import Assessor
from repro.core.cost_model import CostModel
from repro.core.state_machine import JoinState
from repro.engine.streams import as_stream
from repro.engine.table import Table
from repro.engine.tuples import Schema
from repro.jobs import build_job, encode_shard_outcome, normalize_payload
from repro.joins.base import JoinAttribute, JoinSide, SideState
from repro.joins.engine import SymmetricJoinEngine
from repro.joins.sshjoin import SSHJoin
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.policy import MarPolicy
from repro.runtime.session import JoinSession
from repro.runtime.sharding import ShardPlan
from repro.server.store import JsonlJobStore
from repro.similarity.qgrams import qgrams

import trace
import worker
import workloads
from workloads import ATTRIBUTE, THETA_SIM

#: Public entry points wrapped in a span while a traced op runs.
TARGETS = (
    (SSHJoin, "run", "joins.operator_run"),
    (JoinSession, "run", "session.run"),
    (SymmetricJoinEngine, "run_batch", "engine.run_batch"),
    (MarPolicy, "activate", "core.activate"),
    (Assessor, "assess", "core.assess"),
    (ShardPlan, "build", "sharding.plan_build"),
    (ShardPlan, "publish_blocks", "handoff.publish"),
    (ParallelExecutor, "run", "parallel.execute"),
)

PER_LAYER_METRICS = (
    "similarity.tokenise_s", "similarity.grams",
    "joins.index_build_s", "joins.probe_s", "joins.probe_exact_s",
    "joins.vocab_size", "joins.candidates_per_probe",
    "joins.scan_work_per_probe", "joins.verifications_per_match",
    "joins.engine_run_s", "joins.engine_steps_per_s",
    "core.assess_s", "core.assessments", "core.transitions",
    "core.exact_step_fraction", "core.weighted_cost",
    "session.run_s", "session.overhead_ratio",
    "sharding.plan_build_s", "sharding.replication_factor", "sharding.skew",
    "sharding.duplicate_match_fraction",
    "handoff.publish_s", "handoff.payload_bytes", "handoff.descriptor_bytes",
    "parallel.execute_s", "parallel.serial_execute_s", "parallel.speedup",
    "parallel.vs_unsharded_ratio", "parallel.slowest_shard_s",
    "parallel.idle_fraction", "parallel.worker_peak_rss_mb",
    "jobs.build_s", "jobs.overhead_ratio", "jobs.first_match_s",
    "jobs.half_matches_s", "jobs.stream_s",
    "jobs.normalize_payload_s", "jobs.build_job_s", "jobs.encode_outcome_s",
    "jobs.outcome_bytes", "engine.table_load_s",
    "server.submit_p50_s", "server.first_match_p50_s", "server.stream_p50_s",
    "server.op_p90_s", "server.status_p50_s", "server.inproc_job_s",
    "server.overhead_ratio", "server.store_append_s",
    "server.store_bytes_per_job", "server.restore_s", "server.rss_growth_mb",
    "cli.import_s", "cli.link_s",
    "trace.overhead_ratio", "trace.spans",
)

#: Span ``op`` ids: the traced ``JobHandle.run()`` in this process (for the
#: HTTP workload, the in-process run of its first payload), the streamed
#: op, and from there on one id per traced HTTP request.
TRACED_OP, STREAM_OP, FIRST_REQUEST_OP = 0, 1, 2

#: Traced-pass op counts of the HTTP workload: (warm-up, untraced, traced).
HTTP_OPS = (4, 16, 32)
HTTP_OPS_SMOKE = (2, 4, 8)


def timed(tracer: trace.Tracer, name: str, function, *args):
    """Call ``function(*args)`` under a root span; return (seconds, result)."""
    with tracer.span(name) as index:
        result = function(*args)
    span = tracer.spans[index]
    return span["end"] - span["start"], result


# -- layer probes ----------------------------------------------------------------------


def probe_similarity(tracer, dataset, metrics) -> None:
    values = dataset.parent.column(ATTRIBUTE) + dataset.child.column(ATTRIBUTE)
    seconds, grams = timed(
        tracer,
        "similarity.tokenise",
        lambda: sum(len(qgrams(value, 3)) for value in values),
    )
    metrics["similarity.tokenise_s"] = seconds
    metrics["similarity.grams"] = grams


def probe_joins(tracer, dataset, config, metrics) -> None:
    """Build the parent's gram index, then probe it with every child value."""
    side = SideState(
        JoinSide.LEFT, ATTRIBUTE, gram_verification=config.gram_verification
    )

    def build() -> None:
        for record in dataset.parent:
            side.add(record)
        side.catch_up_qgram()

    values = dataset.child.column(ATTRIBUTE)

    def probe() -> None:
        for value in values:
            side.probe_qgram(value, THETA_SIM, verify_jaccard=config.verify_jaccard)

    def probe_exact() -> None:
        for value in values:
            side.probe_exact(value)

    metrics["joins.index_build_s"] = timed(tracer, "joins.index_build", build)[0]
    metrics["joins.probe_s"] = timed(tracer, "joins.probe", probe)[0]
    side.catch_up_exact()
    metrics["joins.probe_exact_s"] = timed(tracer, "joins.probe_exact", probe_exact)[0]
    metrics["joins.vocab_size"] = len(side.interner)


def probe_engine(tracer, dataset, config, metrics) -> float:
    """The bare engine in the workload's fixed modes; returns its seconds."""
    state = config.initial_state

    def run():
        engine = SymmetricJoinEngine(
            as_stream(dataset.parent),
            as_stream(dataset.child),
            JoinAttribute(ATTRIBUTE, ATTRIBUTE),
            similarity_threshold=config.thresholds.theta_sim,
            q=config.thresholds.q,
            left_mode=state.left_mode,
            right_mode=state.right_mode,
            verify_jaccard=config.verify_jaccard,
            gram_verification=config.gram_verification,
        )
        engine.run_to_completion()
        return engine

    seconds, engine = timed(tracer, "engine.run", run)
    counters = engine.counters()
    metrics["joins.engine_run_s"] = seconds
    metrics["joins.engine_steps_per_s"] = engine.step_count / seconds
    if counters.approx_probes:
        metrics["joins.candidates_per_probe"] = (
            counters.candidate_set_size / counters.approx_probes
        )
        metrics["joins.scan_work_per_probe"] = (
            counters.candidate_scan_work / counters.approx_probes
        )
        metrics["joins.verifications_per_match"] = (
            counters.approx_verifications / max(1, counters.matches_emitted)
        )
    return seconds


def probe_session(tracer, dataset, config) -> float:
    """A fixed-policy ``JoinSession`` in the same modes as the bare engine."""
    return timed(
        tracer,
        "session.fixed_run",
        lambda: JoinSession(dataset.parent, dataset.child, ATTRIBUTE, config).run(),
    )[0]


def probe_sharding(tracer, workload, dataset, config, metrics) -> ShardPlan:
    seconds, plan = timed(
        tracer,
        "sharding.plan_build",
        lambda: ShardPlan.build(
            dataset.parent,
            dataset.child,
            ATTRIBUTE,
            workload.shards,
            workload.partitioner,
            config=config,
        ),
    )
    sizes = plan.shard_sizes()
    work = [left * right for left, right in sizes]
    metrics["sharding.plan_build_s"] = seconds
    metrics["sharding.replication_factor"] = sum(map(sum, sizes)) / (
        plan.left_input_size + plan.right_input_size
    )
    metrics["sharding.skew"] = max(work) / (sum(work) / len(work))
    return plan


def probe_handoff(tracer, plan, metrics) -> None:
    def publish():
        published = plan.publish_blocks()
        try:
            return published.descriptors
        finally:
            published.release()

    seconds, descriptors = timed(tracer, "handoff.publish", publish)
    metrics["handoff.publish_s"] = seconds
    metrics["handoff.payload_bytes"] = (
        plan.left_block.payload_size + plan.right_block.payload_size
    )
    metrics["handoff.descriptor_bytes"] = len(pickle.dumps(descriptors))


def probe_cli(tracer, prepared, work_dir: Path, metrics, failures) -> None:
    command = [sys.executable, "-c", "import repro"]
    metrics["cli.import_s"] = statistics.median(
        timed(tracer, "cli.import", subprocess.run, command)[0] for _ in range(3)
    )
    if prepared.csv_paths is None:
        return
    command = [
        sys.executable, "-m", "repro.cli", "link",
        str(prepared.csv_paths["left"]), str(prepared.csv_paths["right"]),
        "--attribute", ATTRIBUTE,
        "--strategy", prepared.workload.strategy,
        "--theta-sim", str(THETA_SIM),
        "--output", str(work_dir / "cli-pairs.csv"),
    ]
    seconds, completed = timed(
        tracer,
        "cli.link",
        lambda: subprocess.run(command, stdout=subprocess.DEVNULL),
    )
    if completed.returncode != 0:
        failures.append(f"repro link exited with {completed.returncode}")
    metrics["cli.link_s"] = seconds


def probe_layers(tracer, workload, prepared, metrics) -> float:
    """The probes every workload gets; returns the fixed session's seconds."""
    dataset = prepared.datasets[0]
    config = workloads.probe_config(workload)
    probe_similarity(tracer, dataset, metrics)
    probe_joins(tracer, dataset, config, metrics)
    engine_seconds = probe_engine(tracer, dataset, config, metrics)
    session_seconds = probe_session(tracer, dataset, config)
    metrics["session.overhead_ratio"] = session_seconds / engine_seconds
    return session_seconds


# -- metrics read off a traced op ----------------------------------------------------


def weighted_cost(summary: Dict[str, object]) -> float:
    """The paper's model cost of a run, from its trace summary."""
    model = CostModel()
    states = {state.short_label: state for state in JoinState}
    return sum(
        steps * model.state_weights[states[label]]
        for label, steps in summary["steps_per_state"].items()
    ) + sum(
        count * model.transition_weights[states[label]]
        for label, count in summary["transitions_into"].items()
    )


def op_metrics(tracer, root: int, statistics_: Dict[str, object], metrics) -> None:
    """What the spans and statistics of the op rooted at ``root`` tell."""
    op = tracer.spans[root]["op"]
    duration = tracer.spans[root]["end"] - tracer.spans[root]["start"]
    children = sum(
        span["end"] - span["start"]
        for span in tracer.spans
        if span["parent"] == root
    )
    if children:
        metrics["jobs.overhead_ratio"] = duration / children
    metrics["session.run_s"] = tracer.total("session.run", op)
    metrics["core.assess_s"] = tracer.total("core.assess", op)
    summary = statistics_.get("trace")
    if summary is not None:
        metrics["core.assessments"] = summary["assessments"]
        metrics["core.transitions"] = summary["transitions"]
        metrics["core.exact_step_fraction"] = summary["exact_step_fraction"]
        metrics["core.weighted_cost"] = weighted_cost(summary)
    if statistics_.get("raw_result_size"):
        metrics["sharding.duplicate_match_fraction"] = (
            statistics_["duplicate_matches"] / statistics_["raw_result_size"]
        )


# -- the two traced passes -------------------------------------------------------------


def traced_library(workload, prepared, args, tracer, metrics, tally) -> None:
    dataset = prepared.datasets[0]
    holder = {}

    def traced_run(handle):
        with tracer.span("jobs.run", op=TRACED_OP) as holder["root"]:
            holder["result"] = handle.run()
        return holder["result"].pairs

    def traced_stream(handle):
        stamps = []
        with tracer.span("jobs.stream", op=STREAM_OP), warnings.catch_warnings():
            # Streaming a job built for the process backend warns that it
            # runs the serial merge path; that is what is measured here.
            warnings.simplefilter("ignore", UserWarning)
            pairs = []
            for match in handle.stream_matches():
                stamps.append(time.perf_counter())
                pairs.append(match.pair)
        holder["stamps"] = stamps
        return pairs

    worker.timed_library_op(workload, prepared, tally)
    with tracer.patched(TARGETS):
        worker.timed_library_op(workload, prepared, tally, traced_run)
        children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if workload.strategy == "adaptive":
            started = time.perf_counter()
            worker.timed_library_op(workload, prepared, tally, traced_stream)
            stamps = holder.get("stamps")
            if stamps:
                metrics["jobs.first_match_s"] = stamps[0] - started
                metrics["jobs.half_matches_s"] = stamps[len(stamps) // 2] - started
                metrics["jobs.stream_s"] = stamps[-1] - started
    if len(tally.seconds) >= 2:
        metrics["trace.overhead_ratio"] = tally.seconds[1] / tally.seconds[0]
    metrics["jobs.build_s"] = statistics.median(
        timed(tracer, "jobs.build", workloads.build_handle, workload, dataset)[0]
        for _ in range(5)
    )
    session_seconds = probe_layers(tracer, workload, prepared, metrics)
    if "result" not in holder:
        return
    result = holder["result"].statistics
    op_metrics(tracer, holder["root"], result, metrics)
    if metrics["session.run_s"] is None:
        # The op runs no session in this process (the baseline operator,
        # or sessions inside pool workers): report the probe's.
        metrics["session.run_s"] = session_seconds
    if workload.backend != "process":
        return
    config = workload.config
    plan = probe_sharding(tracer, workload, dataset, config, metrics)
    probe_handoff(tracer, plan, metrics)
    serial_seconds = timed(
        tracer,
        "parallel.serial_execute",
        lambda: ParallelExecutor(backend="serial").run(plan, config),
    )[0]
    execute_seconds = tracer.total("parallel.execute", TRACED_OP)
    shard_seconds = [row["wall_seconds"] for row in result["per_shard"]]
    root = tracer.spans[holder["root"]]
    metrics["parallel.execute_s"] = execute_seconds
    metrics["parallel.serial_execute_s"] = serial_seconds
    if (os.cpu_count() or 1) >= 2:
        metrics["parallel.speedup"] = serial_seconds / execute_seconds
    metrics["parallel.vs_unsharded_ratio"] = (
        root["end"] - root["start"]
    ) / session_seconds
    metrics["parallel.slowest_shard_s"] = max(shard_seconds)
    metrics["parallel.idle_fraction"] = 1 - sum(shard_seconds) / (
        workload.max_workers * execute_seconds
    )
    metrics["parallel.worker_peak_rss_mb"] = children_rss / 1024.0


def traced_http(workload, prepared, args, tracer, metrics, tally) -> None:
    warmup, untraced_ops, traced_ops = HTTP_OPS_SMOKE if args.smoke else HTTP_OPS
    server = prepared.server
    worker.http_phase(prepared, lambda claimed, _: claimed < warmup)
    rss_after_warmup = server.rss_mb()
    untraced, _, _ = worker.http_phase(
        prepared, lambda claimed, _: claimed < untraced_ops
    )
    traced, _, samples = worker.http_phase(
        prepared, lambda claimed, _: claimed < traced_ops, with_status=True
    )
    metrics["server.rss_growth_mb"] = server.rss_mb() - rss_after_warmup
    for phase in (untraced, traced):
        tally.attempted += phase.attempted
        tally.failures += phase.failures
        tally.seconds += phase.seconds
    for op, sample in enumerate(samples, FIRST_REQUEST_OP):
        root = tracer.add("server.op", sample.started, sample.ended, op=op)
        tracer.add("server.submit", sample.started, sample.submitted, root)
        stream = tracer.add("server.stream", sample.stream_started, sample.ended, root)
        tracer.add("server.first_line", sample.stream_started, sample.first_line, stream)
    op_p50 = statistics.median(traced.seconds) if traced.seconds else None
    if op_p50 is not None and untraced.seconds:
        metrics["trace.overhead_ratio"] = op_p50 / statistics.median(untraced.seconds)
    if len(samples) >= 2:
        for name, seconds in (
            ("server.submit_p50_s", [s.submitted - s.started for s in samples]),
            ("server.first_match_p50_s", [s.first_line - s.started for s in samples]),
            ("server.stream_p50_s", [s.ended - s.stream_started for s in samples]),
            ("server.status_p50_s", [s.status_s for s in samples]),
        ):
            metrics[name] = statistics.median(seconds)
        metrics["server.op_p90_s"] = statistics.quantiles(
            [s.seconds for s in samples], n=10
        )[-1]

    # The same payload through the jobs layer in this process.
    payload = json.loads(prepared.payloads[0])
    seconds, canonical = timed(
        tracer, "jobs.normalize_payload", normalize_payload, payload
    )
    metrics["jobs.normalize_payload_s"] = seconds
    seconds, handle = timed(tracer, "jobs.build_job", build_job, canonical)
    metrics["jobs.build_job_s"] = seconds
    with tracer.patched(TARGETS):
        with tracer.span("jobs.run", op=TRACED_OP) as root:
            result = handle.run()
    inproc_seconds = tracer.spans[root]["end"] - tracer.spans[root]["start"]
    tally.record(prepared, 0, inproc_seconds, result.pairs, "in-process job")
    metrics["server.inproc_job_s"] = inproc_seconds
    if op_p50 is not None:
        metrics["server.overhead_ratio"] = op_p50 / inproc_seconds
    op_metrics(tracer, root, result.statistics, metrics)
    probe_sharding(tracer, workload, prepared.datasets[0], None, metrics)
    outcomes = handle.shard_outcomes
    seconds, encoded = timed(
        tracer,
        "jobs.encode_outcome",
        lambda: [encode_shard_outcome(outcome) for outcome in outcomes],
    )
    metrics["jobs.encode_outcome_s"] = seconds
    metrics["jobs.outcome_bytes"] = sum(map(len, encoded))
    metrics["engine.table_load_s"] = timed(
        tracer,
        "engine.table_load",
        lambda: [
            Table.from_rows(Schema(side["columns"], name=name), side["rows"], name)
            for name, side in (("left", payload["left"]), ("right", payload["right"]))
        ],
    )[0]

    # The store, timed directly on a file of the benchmark's own.
    path = Path(args.work_dir) / "probe-store.jsonl"
    store = JsonlJobStore(str(path))
    try:
        store.add_job("job-probe", canonical)
        metrics["server.store_append_s"] = statistics.median(
            timed(tracer, "server.store_append", store.record_shard, "job-probe", o)[0]
            for o in outcomes
        )
        store.set_status("job-probe", "finished")
    finally:
        store.close()
    store = JsonlJobStore(str(path))
    try:
        metrics["server.restore_s"] = timed(tracer, "server.restore", store.load)[0]
    finally:
        store.close()

    worker.stop_server(prepared, tally)
    submitted = warmup + untraced.attempted + traced.attempted
    metrics["server.store_bytes_per_job"] = server.store.stat().st_size / submitted
    probe_layers(tracer, workload, prepared, metrics)


def traced_pass(workload, args) -> Dict[str, object]:
    """Set up once, trace, probe; the per-layer metrics of one workload."""
    prepared, _ = worker.set_up(workload, args, 1)
    tracer = trace.Tracer()
    metrics: Dict[str, Optional[float]] = dict.fromkeys(PER_LAYER_METRICS)
    tally = worker.Tally()
    try:
        if workload.http:
            traced_http(workload, prepared, args, tracer, metrics, tally)
        else:
            traced_library(workload, prepared, args, tracer, metrics, tally)
        probe_cli(tracer, prepared, Path(args.work_dir), metrics, tally.failures)
    finally:
        prepared.close()
    metrics["trace.spans"] = len(tracer.spans)
    failures: List[str] = tally.failures + trace.nesting_problems(tracer.spans)
    return {
        "attempted": tally.attempted,
        "failed": min(len(failures), tally.attempted),
        "failures": failures,
        "samples": {"op_s": tally.seconds},
        "self_times": trace.summarise(tracer.spans, TRACED_OP),
        "spans": tracer.spans,
        "metrics": metrics,
    }
