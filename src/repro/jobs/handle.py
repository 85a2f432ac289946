"""Job execution: the handle a built :class:`LinkageJob` returns.

A :class:`JobHandle` is one-shot and job-shaped: submit
(:meth:`~JobHandle.run` or :meth:`~JobHandle.stream_matches`), observe
(:meth:`~JobHandle.progress`), interrupt (:meth:`~JobHandle.cancel`) and
collect (:meth:`~JobHandle.result`).  The blocking :meth:`run` executes
on the configured backend (``serial`` / ``process``); streaming drives
the deterministic serial-merge path incrementally so matches surface as
they are found instead of after the run — exactly the interruptible
behaviour the adaptive (MAR) loop was built for and the old
materialise-everything ``link_tables`` call hid.

Matches are streamed as :class:`StreamedMatch` items: the global
``(left_index, right_index)`` pair identity (already translated from
shard-local ordinals in sharded runs, cross-shard duplicates removed
first-shard-wins) plus the underlying
:class:`~repro.joins.base.MatchEvent` with its similarity, mode and step.

The baseline strategies (exact / approximate / blocking) run their
dedicated operators — the code that used to live inline in
``link_tables`` — and only support the blocking :meth:`run`.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.engine.table import Table
from repro.engine.tuples import Record
from repro.joins.base import JoinAttribute, MatchEvent
from repro.joins.baselines import BlockingLinkageJoin
from repro.joins.shjoin import SHJoin
from repro.joins.sshjoin import SSHJoin
from repro.jobs.builder import JobSpec
from repro.jobs.result import LinkageResult
from repro.runtime.collectors import ProgressCollector, ProgressSnapshot
from repro.runtime.config import input_size
from repro.runtime.events import EventBus, ShardCompleted
from repro.runtime.faults import FaultPlan
from repro.runtime.parallel import AggregatedEventBus, ParallelExecutor
from repro.runtime.session import AdaptiveJoinResult, JoinSession
from repro.runtime.sharding import (
    PARTITIONERS,
    FirstShardWins,
    ShardedJoinResult,
    ShardOutcome,
    ShardPlan,
)

#: Default engine steps per streamed batch: small enough that matches and
#: cancellation surface promptly, large enough to amortise the generator
#: round-trip over the fast-path probe loop.
DEFAULT_STREAM_BATCH = 256


@dataclass(frozen=True, slots=True)
class StreamedMatch:
    """One match, as yielded by the streaming surfaces.

    ``left_index`` / ``right_index`` are *global* input positions
    (shard-local ordinals are translated through the plan's origin maps),
    so streamed identities agree with ``LinkageResult.pairs`` and with
    unsharded runs.  ``event`` carries the full match detail.
    """

    left_index: int
    right_index: int
    event: MatchEvent
    #: Shard that discovered the match (``None`` in unsharded runs).
    shard_id: Optional[int] = None

    @property
    def pair(self) -> Tuple[int, int]:
        """The global ``(left index, right index)`` identity."""
        return (self.left_index, self.right_index)

    def to_json(self) -> Dict[str, object]:
        """The match as the NDJSON wire mapping (one stable format).

        Exactly the object the CLI ``--stream`` path has always printed —
        key order included, so ``json.dumps`` output is byte-identical —
        and the one the HTTP server's match feed emits.  ``shard`` only
        appears on matches from sharded runs (``shard_id is not None``).
        """
        payload: Dict[str, object] = {
            "left_index": self.left_index,
            "right_index": self.right_index,
            "similarity": round(self.event.similarity, 4),
            "mode": self.event.mode.value,
            "step": self.event.step,
        }
        if self.shard_id is not None:
            payload["shard"] = self.shard_id
        return payload


class JobHandle:
    """One submitted linkage job (see the module docstring).

    States: ``pending`` → ``running`` → ``finished`` | ``cancelled`` |
    ``failed`` (the run raised; the exception propagated to the caller).
    Exactly one of the run/stream surfaces may be started, once;
    :meth:`result` returns the (possibly partial) outcome afterwards.
    :meth:`resume` is the one exception to one-shot-ness: after a
    cancelled, failed or degraded run it re-runs only the shards the
    previous run did not complete and merges them with the shards it
    did, producing the same result a failure-free run would have.
    :meth:`cancel` may be called from any thread at any time — before the
    run starts (nothing will execute) or mid-run (the run stops at the
    next engine-batch or shard boundary and the partial result is kept,
    flagged ``cancelled``).  Closing a match stream early cancels the job
    the same way.
    """

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self._cancel = threading.Event()
        self._state = "pending"
        self._result: Optional[LinkageResult] = None
        #: The shard plan of the last sharded run (kept for resume: its
        #: ShardInput buffers are materialised, hence replayable).
        self._plan: Optional[ShardPlan] = None
        #: The last sharded merge (kept so resume knows which shards
        #: completed and can reuse their outcomes verbatim).
        self._sharded: Optional[ShardedJoinResult] = None
        #: Open externally-driven run's outcomes (see begin_external).
        self._external_outcomes: Optional[List[ShardOutcome]] = None
        self._progress: Optional[ProgressCollector] = None
        if spec.progress_enabled:
            left_size = input_size(spec.left)
            right_size = input_size(spec.right)
            # Under a replicating partitioner (gram-prefix) the true step count
            # is the replicated record volume, unknown before the plan is
            # built: leave the total unset so `fraction` falls back to
            # shards-done rather than reporting 100% mid-run.
            replicated = (
                spec.shards > 1 and PARTITIONERS[spec.partitioner].replicates
            )
            self._progress = ProgressCollector(
                total_steps=(
                    left_size + right_size
                    if left_size is not None
                    and right_size is not None
                    and not replicated
                    else None
                ),
                total_shards=spec.shards if spec.shards > 1 else None,
            )

    # -- introspection ---------------------------------------------------------------

    @property
    def state(self) -> str:
        """``pending`` / ``running`` / ``finished`` / ``cancelled`` / ``failed``."""
        return self._state

    @property
    def finished(self) -> bool:
        """Whether the job ran to natural completion."""
        return self._state == "finished"

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._cancel.is_set()

    def progress(self) -> ProgressSnapshot:
        """Live progress (steps, matches, shards done, elapsed).

        Requires the job to have been built ``.with_progress()`` — the
        per-step feed is opt-in so pure-throughput runs never pay for it.
        """
        if self._progress is None:
            raise RuntimeError(
                "progress tracking is off for this job: build it with "
                "LinkageJob...with_progress().build() to enable the feed"
            )
        return self._progress.snapshot()

    def cancel(self) -> None:
        """Request a mid-run stop (idempotent, callable from any thread).

        The run stops at the next quiescent boundary — between engine
        batches on the serial path and the streaming surface, between
        shards everywhere — and :meth:`result` returns the partial
        outcome with ``cancelled=True``.
        """
        self._cancel.set()

    def result(self) -> LinkageResult:
        """The job's outcome (partial when cancelled).

        Only available once a run/stream surface has completed; polling
        it on a pending or still-running job is an error.
        """
        if self._result is None:
            if self._state == "failed":
                raise RuntimeError(
                    "job failed: the run raised (the exception propagated "
                    "to the caller) and no result is available — handles "
                    "are one-shot, build the job again to retry"
                )
            raise RuntimeError(
                f"job is {self._state}: run it (run() / stream_matches()) "
                "to completion or cancellation before asking for result()"
            )
        return self._result

    # -- execution: blocking ---------------------------------------------------------

    def run(self) -> LinkageResult:
        """Execute the job to completion (or cancellation) and return.

        Adaptive jobs run through :class:`JoinSession` — sharded ones on
        the configured :class:`~repro.runtime.parallel.ParallelExecutor`
        backend — with the handle's cancel token threaded into every
        loop; baseline strategies run their dedicated operators.
        """
        self._start()
        spec = self.spec
        try:
            if spec.strategy != "adaptive":
                outcome = self._run_baseline()
            elif (
                spec.shards > 1
                or spec.failure_policy is not None
                or spec.fault_plan is not None
            ):
                # Failure policies and fault plans live in the sharded
                # execution layer; a nominally unsharded job that uses
                # them runs as a one-shard plan (same result, identical
                # merge semantics) so retry/timeout/degrade apply.
                outcome = self._run_sharded()
            else:
                outcome = self._run_session()
        except BaseException:
            self._state = "failed"
            raise
        return self._finish(outcome)

    def _run_session(self) -> LinkageResult:
        spec = self.spec
        bus = EventBus()
        if self._progress is not None:
            self._progress.attach(bus)
        session = JoinSession(
            spec.left, spec.right, spec.attribute, spec.run_config, bus=bus
        )
        outcome = session.run(cancel=self._cancel)
        return self._session_result(session, outcome)

    def _session_result(
        self, session: JoinSession, outcome: AdaptiveJoinResult, streamed: bool = False
    ) -> LinkageResult:
        """The one place an unsharded session outcome becomes a result.

        Shared by the blocking and streaming paths so their statistics
        can never drift apart (the streamed ≡ blocking contract).
        """
        statistics = {
            "trace": outcome.trace.summary(),
            "final_state": outcome.final_state.label,
            "result_size": outcome.result_size,
            "policy": session.policy.name,
            "budget_exhausted": session.budget_exhausted,
        }
        if streamed:
            statistics["streamed"] = True
        return LinkageResult.lazy(
            strategy=self.spec.strategy,
            pairs=outcome.matched_pairs(),
            records_factory=outcome.output_records,
            statistics=statistics,
            cancelled=outcome.cancelled,
        )

    def _run_sharded(self) -> LinkageResult:
        spec = self.spec
        plan = ShardPlan.build(
            spec.left,
            spec.right,
            spec.attribute,
            spec.shards,
            spec.partitioner,
            config=spec.run_config,
            handoff=spec.handoff,
        )
        self._plan = plan
        sharded = self._execute_plan(plan, spec.fault_plan)
        self._sharded = sharded
        return self._sharded_result(sharded)

    def _make_bus(self) -> Optional[AggregatedEventBus]:
        if self._progress is None:
            return None
        bus = AggregatedEventBus()
        self._progress.attach(bus)
        return bus

    def _execute_plan(
        self, plan: ShardPlan, faults: Optional[FaultPlan]
    ) -> ShardedJoinResult:
        spec = self.spec
        executor = ParallelExecutor(
            backend=spec.backend,
            max_workers=spec.max_workers,
            failure_policy=spec.failure_policy,
            faults=faults,
        )
        return executor.run(
            plan, spec.run_config, bus=self._make_bus(), cancel=self._cancel
        )

    def _sharded_result(self, sharded: ShardedJoinResult) -> LinkageResult:
        spec = self.spec
        if not sharded.shards:
            # Cancelled before any shard ran: an empty partial result.
            return LinkageResult.eager(
                spec.strategy,
                [],
                [],
                statistics=self._sharded_statistics(sharded),
                cancelled=True,
            )
        return LinkageResult.lazy(
            strategy=spec.strategy,
            pairs=sharded.matched_pairs(),
            records_factory=sharded.output_records,
            statistics=self._sharded_statistics(sharded),
            cancelled=sharded.cancelled,
        )

    def _sharded_statistics(self, sharded: ShardedJoinResult) -> Dict[str, object]:
        # The mapping itself is the shared wire format, owned by the
        # result type (the server returns it verbatim); only the policy
        # name comes from the spec, which the merged result never sees.
        return sharded.describe_json(policy=self.spec.run_config.policy)

    # -- execution: resume -----------------------------------------------------------

    def resume(self, faults: Optional[FaultPlan] = None) -> LinkageResult:
        """Re-run only what the previous run left unfinished and merge.

        Callable after a run ended in any way — ``finished`` (a no-op
        unless the run was degraded), ``cancelled`` or ``failed``.  For
        runs that went through the sharded layer the plan's materialised
        shard buffers are replayed: shards that completed are reused
        verbatim, shards that were cancelled mid-run, dropped by a
        degrade policy, aborted by fail-fast or never started are re-run
        on the configured backend, and the merged result is bit-identical
        to a failure-free run.  The spec's fault plan is *not* replayed
        (resuming into the same injected crash would be pointless); pass
        ``faults`` to inject a fresh plan into the resumed attempt —
        its shard ids refer to the *original* plan's numbering, and
        specs aimed at shards that are not being re-run are ignored.

        Unsharded runs (no shards, no failure policy) have no shard
        buffers; they can only be resumed over :class:`Table` inputs,
        which are replayable, and re-run from the start.
        """
        if self.spec.strategy != "adaptive":
            raise ValueError(
                "resume() requires the adaptive strategy; the baselines "
                f"materialise in one shot — this job runs "
                f"{self.spec.strategy!r}, build it again instead"
            )
        if self._state not in ("finished", "cancelled", "failed"):
            raise RuntimeError(
                f"cannot resume a {self._state} job: resume picks up "
                "after a finished, cancelled or failed run"
            )
        if self._plan is not None:
            return self._resume_sharded(faults)
        return self._resume_unsharded(faults)

    def _resume_sharded(self, faults: Optional[FaultPlan]) -> LinkageResult:
        plan = self._plan
        previous = self._sharded.shards if self._sharded is not None else ()
        # A shard outcome flagged cancelled is partial — re-run it whole;
        # shards dropped by degrade or aborted by fail-fast simply have
        # no outcome.  Everything else is complete and reused verbatim.
        complete = tuple(o for o in previous if not o.result.cancelled)
        done = {outcome.shard_id for outcome in complete}
        missing = [s for s in range(plan.shard_count) if s not in done]
        if not missing:
            return self._result
        if faults is not None:
            # The caller thinks in original shard ids; the subset plan
            # renumbers its shards 0..m-1.  Remap (and drop specs for
            # shards that are not being re-run).
            position = {original: i for i, original in enumerate(missing)}
            faults = FaultPlan(
                tuple(
                    replace(spec, shard_id=position[spec.shard_id])
                    for spec in faults.faults
                    if spec.shard_id in position
                )
            )
        self._restart()
        try:
            sub_result = self._execute_plan(plan.subset(missing), faults)
        except BaseException:
            self._state = "failed"
            raise
        # The subset plan renumbers its shards 0..m-1; map outcomes and
        # failure records back to the original shard ids before merging.
        outcomes = complete + tuple(
            replace(outcome, shard_id=missing[outcome.shard_id])
            for outcome in sub_result.shards
        )
        failed = tuple(
            replace(failure, shard_id=missing[failure.shard_id])
            for failure in sub_result.failed_shards
        )
        sharded = ShardedJoinResult(
            shards=outcomes,
            backend=self.spec.backend,
            partitioner=self.spec.partitioner,
            left_input_size=plan.left_input_size,
            right_input_size=plan.right_input_size,
            cancelled=sub_result.cancelled,
            failed_shards=failed,
            handoff=plan.handoff,
        )
        self._sharded = sharded
        result = self._sharded_result(sharded)
        result.statistics["resumed"] = True
        return self._finish(result)

    def _resume_unsharded(self, faults: Optional[FaultPlan]) -> LinkageResult:
        spec = self.spec
        if faults is not None:
            raise ValueError(
                "fault injection rides the sharded execution layer; an "
                "unsharded resume cannot take a FaultPlan"
            )
        if self._state == "finished":
            return self._result
        if not isinstance(spec.left, Table) or not isinstance(spec.right, Table):
            raise RuntimeError(
                "cannot resume an unsharded run over record streams: the "
                "previous attempt consumed them — use Table inputs "
                "(replayable) or sharded execution, whose plan keeps "
                "replayable shard buffers"
            )
        self._restart()
        try:
            result = self._run_session()
        except BaseException:
            self._state = "failed"
            raise
        result.statistics["resumed"] = True
        return self._finish(result)

    def _restart(self) -> None:
        """Re-arm the handle for a resume: fresh cancel token, running state."""
        self._cancel = threading.Event()
        self._result = None
        self._state = "running"
        if self._progress is not None:
            self._progress.restart_clock()

    # -- execution: external drivers (the server's scheduler) ------------------------
    #
    # The HTTP server's scheduler interleaves the shards of *many* jobs
    # on one shared worker budget, so it cannot hand a whole job to
    # run()/stream_matches() — it drives shard sessions itself and
    # funnels lifecycle, progress and results back through the handle so
    # state/progress()/result() behave exactly as for in-handle runs.

    @property
    def progress_collector(self) -> Optional[ProgressCollector]:
        """The handle's progress collector (``None`` unless ``with_progress``).

        External drivers attach it to the buses of the shard sessions
        they run, the way the in-handle paths do.
        """
        return self._progress

    @property
    def cancel_token(self) -> threading.Event:
        """The cancel token (thread it into externally-run shard loops)."""
        return self._cancel

    @property
    def shard_outcomes(self) -> Tuple[ShardOutcome, ...]:
        """Per-shard outcomes of the last sharded run (empty before one).

        What a job store persists and a match feed can be rebuilt from:
        each outcome carries its shard's full match events plus the
        origin maps that globalise them.
        """
        return self._sharded.shards if self._sharded is not None else ()

    def begin_external(self, plan: ShardPlan) -> None:
        """Claim the one-shot slot for an out-of-handle shard driver.

        ``plan`` must be built from this handle's spec (the driver builds
        it to schedule against; the handle keeps it for resume).  The
        driver then runs shard sessions in any interleaving it likes,
        records each completed shard with :meth:`record_shard_outcome`,
        and closes the run with :meth:`finish_external`.
        """
        self._start()
        self._plan = plan
        self._external_outcomes = []

    def record_shard_outcome(self, outcome: ShardOutcome) -> None:
        """Record one externally-executed shard's complete outcome."""
        if self._external_outcomes is None:
            raise RuntimeError(
                "no external run is open: call begin_external(plan) first"
            )
        self._external_outcomes.append(outcome)

    def finish_external(self) -> LinkageResult:
        """Merge the recorded outcomes and close the externally-driven run.

        Same merge semantics as the streaming path (shard-id-order dedup,
        ``backend="serial"`` — the external driver ran sessions one batch
        at a time, whatever thread they were on); honours the cancel
        token, so a cancelled job closes as a partial result.
        """
        plan = self._plan
        outcomes = self._external_outcomes
        if plan is None or outcomes is None:
            raise RuntimeError(
                "no external run is open: call begin_external(plan) first"
            )
        self._external_outcomes = None
        sharded = ShardedJoinResult(
            shards=tuple(outcomes),
            backend="serial",
            partitioner=self.spec.partitioner,
            left_input_size=plan.left_input_size,
            right_input_size=plan.right_input_size,
            cancelled=self._cancel.is_set(),
            handoff=plan.handoff,
        )
        self._sharded = sharded
        result = self._sharded_result(sharded)
        result.statistics["streamed"] = True
        return self._finish(result)

    def fail_external(self, error: BaseException) -> None:
        """Close an externally-driven run as ``failed``.

        The counterpart of the in-handle paths' ``except`` clauses: the
        driver's shard session raised, the exception went to the driver
        (not through the handle), and the handle must report ``failed``
        with no result — same contract as a :meth:`run` that raised.
        """
        del error  # the driver reports it; the handle only keeps the state
        self._external_outcomes = None
        self._state = "failed"

    def restore(self, plan: ShardPlan, outcomes: Iterable[ShardOutcome]) -> None:
        """Rehydrate a pending handle from persisted shard outcomes.

        The restart path of a disk-backed job store: the server rebuilds
        the spec, rebuilds ``plan`` from it (planning is deterministic —
        same spec and inputs, same plan), loads the shard outcomes the
        previous process persisted, and restores the handle as if that
        run had been cancelled right after its last completed shard.
        :meth:`resume` then re-runs exactly the missing shards and merges
        bit-identically to an uninterrupted run.  A handle restored with
        *all* shards present closes as ``finished`` instead.
        """
        if self._state != "pending":
            raise RuntimeError(
                f"cannot restore a {self._state} handle: restore() "
                "rehydrates a freshly built one"
            )
        complete = tuple(o for o in outcomes if not o.result.cancelled)
        self._plan = plan
        self._state = "running"
        sharded = ShardedJoinResult(
            shards=complete,
            backend=self.spec.backend,
            partitioner=self.spec.partitioner,
            left_input_size=plan.left_input_size,
            right_input_size=plan.right_input_size,
            cancelled=len(complete) < plan.shard_count,
            handoff=plan.handoff,
        )
        self._sharded = sharded
        self._finish(self._sharded_result(sharded))

    # -- execution: streaming --------------------------------------------------------

    def stream_matches(
        self, batch_size: int = DEFAULT_STREAM_BATCH
    ) -> Iterator[StreamedMatch]:
        """Lazily yield matches as the run discovers them (adaptive only).

        Drives the session(s) ``batch_size`` engine steps at a time and
        yields each batch's matches immediately, so the first match
        surfaces long before the inputs are drained.  Sharded jobs
        stream the deterministic serial-merge path — shards in id order,
        shard-local ordinals translated to global pairs, cross-shard
        duplicates dropped first-shard-wins — regardless of the
        configured backend (which only the blocking :meth:`run` uses).
        Policy activations land at exactly the same steps as a blocking
        run.

        Cancellation (:meth:`cancel`, or closing this iterator early)
        stops the run at the next batch boundary; :meth:`result` then
        holds everything the run produced up to that point — a superset
        of what was streamed when the iterator was closed mid-batch —
        flagged ``cancelled``.

        The handle claims its one-shot slot at *call* time, so either
        consume the returned iterator or ``close()`` it; an abandoned,
        never-started iterator leaves the job in ``running`` with no
        result.  A sharded job configured with a parallel backend gets a
        ``UserWarning`` here — streaming trades that parallelism for the
        deterministic incremental feed (use :meth:`run` to keep it).
        """
        self._require_adaptive("stream_matches()")
        self._warn_stream_backend("stream_matches()")
        self._start()
        if self.spec.shards > 1:
            return self._stream_sharded(batch_size)
        return self._stream_unsharded(batch_size)

    def _require_adaptive(self, what: str) -> None:
        if self.spec.strategy != "adaptive":
            raise ValueError(
                f"{what} requires the adaptive strategy (the baselines "
                f"materialise their whole result); this job runs "
                f"{self.spec.strategy!r} — use run() instead"
            )

    def _warn_stream_backend(self, what: str) -> None:
        """Streaming trades the configured parallel backend for the
        deterministic serial-merge feed — say so instead of silently
        dropping the parallelism the caller asked for."""
        if self.spec.shards > 1 and self.spec.backend != "serial":
            warnings.warn(
                f"{what} runs the deterministic serial-merge path; the "
                f"configured {self.spec.backend!r} backend only applies "
                f"to run()",
                UserWarning,
                stacklevel=3,
            )

    def _stream_unsharded(self, batch_size: int) -> Iterator[StreamedMatch]:
        spec = self.spec
        bus = EventBus()
        if self._progress is not None:
            self._progress.attach(bus)
        session = JoinSession(
            spec.left, spec.right, spec.attribute, spec.run_config, bus=bus
        )

        def finalize() -> None:
            # Everything derives from the session outcome, so pairs,
            # records and result_size stay mutually consistent even when
            # the stream is closed mid-batch (the outcome may then hold a
            # few matches the consumer never pulled — same convention as
            # the sharded streaming path).
            self._finish(
                self._session_result(session, session.result(), streamed=True)
            )

        try:
            for batch in session.run_batches(
                max_batch=batch_size, cancel=self._cancel
            ):
                for event in batch:
                    pair = event.pair_key()
                    yield StreamedMatch(pair[0], pair[1], event)
        except GeneratorExit:
            # The consumer closed the stream early: that is a cancel —
            # unless the session had already drained both inputs (the
            # close landed on the final batch's last yield), in which
            # case the run genuinely completed.
            if not session.finished:
                self._cancel.set()
                session.mark_cancelled()
            finalize()
            raise
        except BaseException:
            self._state = "failed"
            raise
        else:
            finalize()

    def _stream_sharded(self, batch_size: int) -> Iterator[StreamedMatch]:
        spec = self.spec
        plan = ShardPlan.build(
            spec.left,
            spec.right,
            spec.attribute,
            spec.shards,
            spec.partitioner,
            config=spec.run_config,
            handoff=spec.handoff,
        )
        self._plan = plan
        owner = FirstShardWins()
        outcomes: List[ShardOutcome] = []
        session: Optional[JoinSession] = None
        shard_started = 0.0
        shard_id = -1

        def close_shard() -> Optional[ShardOutcome]:
            """Record the current shard's (possibly partial) outcome.

            A shard that observed the cancel token before its first step
            was skipped, not run — dropped, like the backends drop them.
            """
            nonlocal session
            if session is None:
                return None
            result = session.result()
            session = None
            if result.never_ran:
                return None
            outcome = ShardOutcome(
                shard_id=shard_id,
                result=result,
                left_origins=plan.left_shards[shard_id].origins,
                right_origins=plan.right_shards[shard_id].origins,
                wall_seconds=time.perf_counter() - shard_started,
            )
            outcomes.append(outcome)
            return outcome

        def finalize() -> None:
            sharded = ShardedJoinResult(
                shards=tuple(outcomes),
                backend="serial",  # the streaming path is the serial merge
                partitioner=spec.partitioner,
                left_input_size=plan.left_input_size,
                right_input_size=plan.right_input_size,
                cancelled=self._cancel.is_set(),
                handoff=plan.handoff,
            )
            self._sharded = sharded
            result = self._sharded_result(sharded)
            result.statistics["streamed"] = True
            self._finish(result)

        try:
            for shard_id in range(plan.shard_count):
                if self._cancel.is_set():
                    break
                shard_started = time.perf_counter()
                left, right = plan.shard_streams(shard_id)
                bus = EventBus()
                if self._progress is not None:
                    self._progress.attach(bus)
                session = JoinSession(
                    left, right, plan.attribute, spec.run_config, bus=bus
                )
                left_origins = plan.left_shards[shard_id].origins
                right_origins = plan.right_shards[shard_id].origins
                for batch in session.run_batches(
                    max_batch=batch_size, cancel=self._cancel
                ):
                    for event in batch:
                        pair = (
                            left_origins[event.left.ordinal],
                            right_origins[event.right.ordinal],
                        )
                        # The merge path's dedup rule, decided the moment
                        # the match is discovered.
                        if owner.owns(pair, shard_id):
                            yield StreamedMatch(pair[0], pair[1], event, shard_id)
                outcome = close_shard()
                if outcome is not None:
                    bus.publish(
                        ShardCompleted(
                            shard_id, outcome.result, outcome.wall_seconds
                        )
                    )
        except GeneratorExit:
            # The consumer closed the stream early: a cancel, unless the
            # close landed on the very last shard's final yield with its
            # session already drained — then the run is complete.
            run_complete = (
                session is not None
                and session.finished
                and shard_id == plan.shard_count - 1
            )
            if not run_complete:
                self._cancel.set()
            if session is not None:
                if not session.finished:
                    session.mark_cancelled()
                outcome = close_shard()
                if outcome is not None:
                    bus.publish(
                        ShardCompleted(
                            shard_id, outcome.result, outcome.wall_seconds
                        )
                    )
            finalize()
            raise
        except BaseException:
            self._state = "failed"
            raise
        else:
            finalize()

    # -- the baseline strategies (moved verbatim from the old link_tables) ------------

    def _run_baseline(self) -> LinkageResult:
        spec = self.spec
        if self._cancel.is_set():
            return LinkageResult.eager(
                spec.strategy, [], [], statistics={}, cancelled=True
            )
        if spec.strategy == "exact":
            operator = SHJoin(spec.left, spec.right, spec.attribute)
        elif spec.strategy == "approximate":
            operator = SSHJoin(
                spec.left,
                spec.right,
                spec.attribute,
                similarity_threshold=spec.similarity_threshold,
            )
        else:  # blocking
            blocking = BlockingLinkageJoin(
                spec.left,
                spec.right,
                spec.attribute,
                threshold=spec.similarity_threshold,
            )
            records = blocking.run()
            pairs = _pairs_from_records(
                records, spec.left, spec.right, spec.attribute
            )
            return LinkageResult.eager(
                spec.strategy,
                pairs,
                records,
                statistics={
                    "result_size": len(records),
                    "comparisons": blocking.comparisons,
                },
            )
        records = operator.run()
        pairs = sorted(operator.engine._emitted_pairs)
        return LinkageResult.eager(
            spec.strategy,
            pairs,
            records,
            statistics={
                "result_size": len(records),
                "operation_counters": operator.operation_counters().as_dict(),
            },
        )

    # -- lifecycle -------------------------------------------------------------------

    def _start(self) -> None:
        if self._state != "pending":
            raise RuntimeError(
                f"job already {self._state}: a handle is one-shot — build "
                "the job again for another run"
            )
        self._state = "running"
        if self._progress is not None:
            # Elapsed time measures the run, not the build()-to-run gap.
            self._progress.restart_clock()

    def _finish(self, result: LinkageResult) -> LinkageResult:
        self._result = result
        self._state = "cancelled" if result.cancelled else "finished"
        return result


def _pairs_from_records(
    records: Iterable[Record],
    left: Table,
    right: Table,
    attribute: JoinAttribute,
) -> List[Tuple[int, int]]:
    """Reconstruct (left index, right index) pairs from joined records.

    Blocking joins emit records without ordinal bookkeeping, so pairs are
    recovered by value lookup; when several rows share a value the first
    matching row is used, which is adequate for evaluation because rows with
    identical key values have identical linkage outcomes.
    """
    left_positions: Dict[object, List[int]] = {}
    for index, record in enumerate(left):
        left_positions.setdefault(record[attribute.left], []).append(index)
    right_positions: Dict[object, List[int]] = {}
    for index, record in enumerate(right):
        right_positions.setdefault(record[attribute.right], []).append(index)
    left_width = len(left.schema)
    pairs: List[Tuple[int, int]] = []
    for record in records:
        values = record.values
        left_value = values[left.schema.position(attribute.left)]
        right_value = values[left_width + right.schema.position(attribute.right)]
        pairs.append(
            (
                left_positions.get(left_value, [0])[0],
                right_positions.get(right_value, [0])[0],
            )
        )
    return pairs
