"""Multi-job fair-share scheduling over one shared worker budget.

The scheduler is what turns :class:`~repro.jobs.handle.JobHandle` — a
one-shot, in-process object — into a *service*: N concurrent jobs share
``max_workers`` worker threads at **shard** granularity, so a long job
cannot monopolise the budget while short ones queue behind it.

Admission and dispatch
----------------------

Admission is bounded by ``max_queued`` open (non-terminal) jobs — past
that, :meth:`submit` raises :class:`QueueFull` and the HTTP layer
answers 429.  Dispatch is weighted fair-share (stride scheduling): each
job carries a ``priority`` weight and a consumed-cost account, and every
time a worker frees up it picks the dispatchable job with the smallest
*virtual time* ``consumed_cost / priority``, breaking ties by higher
priority then admission order.  Cost is the shard plan's pairwise
comparison volume — shard ``k`` costs ``max(l_k · r_k, 1)``, the same
quantity :meth:`ShardedJoinResult.estimated_recall` accounts recall in —
charged when the shard is dispatched.  Under contention a weight-3 job
therefore receives ~3× the comparison volume a weight-1 job does, and
every admitted job keeps making progress (no starvation: a waiting job's
virtual time stands still while the running ones' grow).

Execution modes
---------------

Adaptive jobs without failure knobs are driven *shard-granular*: the
scheduler builds the job's :class:`~repro.runtime.sharding.ShardPlan`,
runs one :class:`~repro.runtime.session.JoinSession` per shard (each
dispatch is one whole shard, run batch-by-batch so cancellation lands
promptly), records every batch's matches into per-shard buffers for the
streaming readers, and funnels outcomes back through the handle's
external-driver surface (``begin_external`` / ``record_shard_outcome`` /
``finish_external``).  Three job shapes instead run as a single
scheduled unit (costed at their full volume): baseline strategies (their
operators are not incremental), jobs with a failure policy or fault plan
(retry/timeout/degrade semantics live in the
:class:`~repro.runtime.parallel.ParallelExecutor`, so the whole job runs
through :meth:`JobHandle.run`), and restart-resumes
(:meth:`JobHandle.resume` re-runs exactly the missing shards).

Match feeds
-----------

Readers (:meth:`stream_matches`) walk the per-shard buffers in shard-id
order, each with its *own*
:class:`~repro.runtime.sharding.FirstShardWins` dedup — the merge path's
rule, applied reader-side — and block on a condition variable until more
matches arrive.  Buffers hold the raw per-shard sequences, so any number
of readers, attaching at any time (including after completion, or after
a restart rebuilt the buffers from persisted outcomes), see the same
byte sequence ``repro link --stream`` would print for the same spec.

Restart
-------

:meth:`restore` replays a :class:`~repro.server.store.JobStore`:
terminal jobs come back listable with their matches re-streamable from
persisted outcomes; interrupted adaptive jobs are rehydrated through
:meth:`JobHandle.restore` and automatically re-enqueued as resume units.
Only complete shard outcomes are ever persisted, so a resumed run merges
bit-identically to an uninterrupted one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.jobs.builder import JobSpec
from repro.jobs.handle import DEFAULT_STREAM_BATCH, JobHandle, StreamedMatch
from repro.jobs.serialization import PayloadError, build_job, normalize_payload
from repro.runtime.collectors import ProgressSnapshot
from repro.runtime.events import EventBus, ShardCompleted
from repro.runtime.sharding import FirstShardWins, ShardOutcome, ShardPlan
from repro.runtime.session import JoinSession
from repro.server.store import JobStore, MemoryJobStore
from repro.server.wire import job_status_body

__all__ = [
    "JobScheduler",
    "MatchesUnavailable",
    "QueueFull",
    "UnknownJob",
]


class QueueFull(RuntimeError):
    """Admission refused: ``max_queued`` jobs are already open (HTTP 429)."""


class UnknownJob(KeyError):
    """No job with that id (HTTP 404)."""


class MatchesUnavailable(RuntimeError):
    """The job produces no match feed (baseline strategy, or it failed)."""


#: Sentinel shard id for single-unit dispatches (whole-job runs).
_WHOLE_JOB = -1


@dataclass
class _Job:
    """One admitted job's scheduler-side state (all mutation under the lock)."""

    job_id: str
    seq: int
    handle: JobHandle
    payload: Dict[str, object]
    priority: int
    #: ``shard`` (scheduler-driven sessions) or ``whole`` (single unit).
    mode: str
    plan: Optional[ShardPlan] = None
    #: Pairwise-volume cost per dispatch unit (``whole`` jobs: one entry).
    costs: Dict[int, float] = field(default_factory=dict)
    consumed: float = 0.0
    pending: List[int] = field(default_factory=list)
    running: Set[int] = field(default_factory=set)
    dispatched: bool = False
    finalized: bool = False
    #: Raw (pre-dedup) per-shard match buffers for streaming readers.
    buffers: Dict[int, List[StreamedMatch]] = field(default_factory=dict)
    #: Shards whose buffers are complete (no more appends coming).
    buffer_done: Set[int] = field(default_factory=set)
    #: Shard ids already written to the store (restored or recorded live).
    persisted: Set[int] = field(default_factory=set)
    #: Whether buffers will ever exist (adaptive jobs only).
    streamable: bool = True
    error: Optional[str] = None
    resume: bool = False
    #: Terminal status read back from the store: a job restored as ended
    #: reports it, not its rebuilt handle's (a baseline's never ran).
    stored_state: Optional[str] = None

    @property
    def virtual_time(self) -> float:
        return self.consumed / self.priority

    @property
    def state(self) -> str:
        """Lifecycle state: the stored one for a job restored as ended."""
        return self.stored_state or self.handle.state

    @property
    def open(self) -> bool:
        """Still counts against the admission queue depth."""
        return not self.finalized


class JobScheduler:
    """The fair-share scheduler (see the module docstring).

    Parameters
    ----------
    max_workers:
        The shared worker budget: how many shard sessions (or single-unit
        jobs) run concurrently, across *all* jobs.
    max_queued:
        Admission bound on open jobs; exceeding it raises
        :class:`QueueFull`.
    store:
        The persistence backend (defaults to :class:`MemoryJobStore`).
    autostart:
        Start the worker threads immediately.  Fairness tests pass
        ``False``, queue several jobs, then :meth:`start` — making the
        dispatch order deterministic and observable.
    shard_batch:
        Engine steps per batch in scheduler-driven shard sessions (the
        granularity at which matches surface and cancellation lands).
    shard_delay:
        Testing/CI hook: seconds to sleep after each engine batch of a
        scheduler-driven shard, so smoke tests can reliably catch jobs
        mid-run (cancel them, SIGTERM the server).  0 in production.
    on_shard_complete:
        Testing hook called (without the lock held) after each
        scheduler-driven shard completes, with ``(job_id, shard_id)``.
    """

    def __init__(
        self,
        max_workers: int = 2,
        max_queued: int = 16,
        store: Optional[JobStore] = None,
        autostart: bool = True,
        shard_batch: int = DEFAULT_STREAM_BATCH,
        shard_delay: float = 0.0,
        on_shard_complete: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        if max_queued < 1:
            raise ValueError(f"max_queued must be at least 1, got {max_queued}")
        self.store = store if store is not None else MemoryJobStore()
        self.max_workers = max_workers
        self.max_queued = max_queued
        self._shard_batch = shard_batch
        self._shard_delay = shard_delay
        self._on_shard_complete = on_shard_complete
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, _Job] = {}
        self._order: List[str] = []
        self._next_seq = 1
        #: Jobs :meth:`restore` skipped because their stored payload no
        #: longer builds (e.g. it names a backend that has been removed):
        #: job id → the build error.  They are neither listed nor re-run.
        self.unrestorable: Dict[str, str] = {}
        self._stopping = False
        self._started = False
        self._workers: List[threading.Thread] = []
        self._counters: Dict[str, int] = {
            "jobs_submitted": 0,
            "jobs_finished": 0,
            "jobs_cancelled": 0,
            "jobs_failed": 0,
            "jobs_resumed": 0,
            "shards_completed": 0,
        }
        if autostart:
            self.start()

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
            for index in range(self.max_workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"linkage-worker-{index}",
                    daemon=True,
                )
                self._workers.append(thread)
                thread.start()

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Stop dispatching, interrupt running jobs, join the workers.

        Running shard sessions observe their job's cancel token at the
        next batch boundary and stop *without* being recorded (only
        complete shards are persisted), so a disk-backed server resumes
        them whole after restart.  No terminal status is written for
        interrupted jobs — their absence is what marks them resumable.
        """
        with self._cond:
            self._stopping = True
            for job in self._jobs.values():
                if not job.finalized:
                    job.handle.cancel_token.set()
            self._cond.notify_all()
        for thread in self._workers:
            thread.join(timeout)
        self.store.close()

    # -- admission -------------------------------------------------------------------

    def submit(self, payload: Mapping) -> str:
        """Validate, admit and enqueue one job; returns its id.

        Raises :class:`~repro.jobs.serialization.PayloadError` on an
        invalid payload and :class:`QueueFull` past the depth cap.
        """
        canonical = normalize_payload(payload)
        handle = build_job(canonical)
        with self._cond:
            if self._stopping:
                raise QueueFull("the server is shutting down")
            depth = sum(1 for job in self._jobs.values() if job.open)
            if depth >= self.max_queued:
                raise QueueFull(
                    f"queue depth cap reached ({depth} open jobs, "
                    f"max_queued={self.max_queued}); retry after one "
                    f"completes"
                )
            job_id = f"job-{self._next_seq}"
            job = self._admit(job_id, handle, canonical)
            self._counters["jobs_submitted"] += 1
            # Persist the admission before any worker can possibly write
            # a shard record for it: replay drops shard lines that
            # precede their job line.
            self.store.add_job(job_id, dict(canonical))
            self._cond.notify_all()
        return job.job_id

    def _admit(
        self, job_id: str, handle: JobHandle, canonical: Dict[str, object]
    ) -> _Job:
        """Register a built handle under the lock and enqueue its work."""
        spec = handle.spec
        shard_driven = (
            spec.strategy == "adaptive"
            and spec.failure_policy is None
            and spec.fault_plan is None
        )
        job = _Job(
            job_id=job_id,
            seq=self._next_seq,
            handle=handle,
            payload=canonical,
            priority=int(canonical.get("priority", 1)),
            mode="shard" if shard_driven else "whole",
            streamable=spec.strategy == "adaptive",
        )
        self._next_seq += 1
        if job.mode == "shard":
            job.plan = self._build_plan(spec)
            sizes = job.plan.shard_sizes()
            for shard_id, (left_size, right_size) in enumerate(sizes):
                job.costs[shard_id] = float(max(left_size * right_size, 1))
                job.buffers[shard_id] = []
            job.pending = list(range(job.plan.shard_count))
        else:
            left = len(spec.left) if hasattr(spec.left, "__len__") else 1
            right = len(spec.right) if hasattr(spec.right, "__len__") else 1
            job.costs[_WHOLE_JOB] = float(max(left * right, 1))
            job.pending = [_WHOLE_JOB]
        self._jobs[job_id] = job
        self._order.append(job_id)
        return job

    @staticmethod
    def _build_plan(spec: JobSpec) -> ShardPlan:
        """The job's deterministic shard plan (same spec → same plan)."""
        return ShardPlan.build(
            spec.left,
            spec.right,
            spec.attribute,
            spec.shards,
            spec.partitioner,
            config=spec.run_config,
            handoff=spec.handoff,
        )

    # -- restart: replay the store ---------------------------------------------------

    def restore(self) -> List[str]:
        """Rehydrate the store's jobs; returns the ids re-enqueued to run.

        Jobs with a persisted terminal status come back listable exactly
        as they ended (adaptive ones with their match feed rebuilt from
        persisted outcomes) — a deliberately cancelled or failed job is
        *not* re-run.  Jobs with no terminal status were interrupted
        mid-run: adaptive ones are restored as cancelled-partial runs and
        re-enqueued as resume units (only the missing shards re-run);
        baseline ones re-run whole (their operators keep no partial
        state).  A job whose stored payload no longer builds is skipped
        and recorded in :attr:`unrestorable`; every other job still
        restores.  Job numbering continues after the highest stored id,
        so restored, skipped and new ids never collide.
        """
        resumed: List[str] = []
        for stored in self.store.load():
            try:
                seq = int(stored.job_id.rsplit("-", 1)[1])
            except (IndexError, ValueError):
                seq = None
            try:
                handle = build_job(stored.payload)
            except PayloadError as error:
                with self._cond:
                    self.unrestorable[stored.job_id] = str(error)
                    if seq is not None:
                        self._next_seq = max(self._next_seq, seq + 1)
                continue
            spec = handle.spec
            with self._cond:
                if seq is not None:
                    self._next_seq = max(self._next_seq, seq)
                job = self._admit(stored.job_id, handle, dict(stored.payload))
                job.pending.clear()
                job.persisted = set(stored.outcomes)
                if spec.strategy == "adaptive":
                    plan = job.plan or self._build_plan(spec)
                    job.plan = plan
                    outcomes = [
                        stored.outcomes[shard_id]
                        for shard_id in sorted(stored.outcomes)
                    ]
                    handle.restore(plan, outcomes)
                    self._rebuild_buffers(job)
                    if stored.status is None and not handle.finished:
                        # Interrupted mid-run: re-enqueue as one resume
                        # unit, costed at the missing shards' volume.
                        job.resume = True
                        job.mode = "whole"
                        sizes = plan.shard_sizes()
                        missing_cost = sum(
                            max(sizes[s][0] * sizes[s][1], 1)
                            for s in range(plan.shard_count)
                            if s not in stored.outcomes
                        )
                        job.costs = {_WHOLE_JOB: float(max(missing_cost, 1))}
                        job.pending = [_WHOLE_JOB]
                        resumed.append(job.job_id)
                        self._counters["jobs_resumed"] += 1
                    else:
                        job.finalized = True
                        job.stored_state = stored.status
                        if stored.status == "failed":
                            job.error = "failed before restart"
                elif stored.status is None:
                    # Interrupted baseline: re-run it whole on the fresh
                    # handle (pending from _admit is already correct).
                    job.pending = [_WHOLE_JOB]
                    resumed.append(job.job_id)
                    self._counters["jobs_resumed"] += 1
                else:
                    # Terminal baseline: listable, but its result was
                    # never persisted (baselines record no outcomes).
                    job.finalized = True
                    job.stored_state = stored.status
                    if stored.status != "finished":
                        job.error = f"{stored.status} before restart"
                self._cond.notify_all()
        return resumed

    def _rebuild_buffers(self, job: _Job) -> None:
        """Recreate the match feed from the handle's shard outcomes.

        Each outcome holds its shard's full raw match sequence in
        emission order, so replaying it through the origin maps yields
        the exact buffer a live run would have produced.  Only shards
        *with* outcomes are marked buffer-complete: a restored partial
        run's missing shards stay open so readers wait for the resume to
        fill them.
        """
        tag_shards = job.handle.spec.shards > 1
        for outcome in job.handle.shard_outcomes:
            shard_id = outcome.shard_id
            left_origins = outcome.left_origins
            right_origins = outcome.right_origins
            tag = shard_id if tag_shards else None
            job.buffers[shard_id] = [
                StreamedMatch(
                    left_origins[event.left.ordinal],
                    right_origins[event.right.ordinal],
                    event,
                    tag,
                )
                for event in outcome.result.matches
            ]
            job.buffer_done.add(shard_id)

    # -- queries ---------------------------------------------------------------------

    def _get(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def job_ids(self) -> List[str]:
        """Admission-ordered ids of every known job."""
        with self._lock:
            return list(self._order)

    def describe(self, job_id: str) -> Dict[str, object]:
        """The job's status body (the ``GET /jobs/{id}`` payload)."""
        with self._lock:
            job = self._get(job_id)
            state = job.state
            if (
                not job.finalized
                and state != "running"
                and (state == "pending" or job.pending or job.running)
            ):
                # Admitted but not dispatched yet — including a restored
                # partial run awaiting its resume unit.
                state = "queued"
            progress: Optional[ProgressSnapshot] = None
            collector = job.handle.progress_collector
            if collector is not None:
                progress = collector.snapshot()
            statistics: Optional[Dict[str, object]] = None
            result_size: Optional[int] = None
            if job.finalized and state in ("finished", "cancelled"):
                try:
                    result = job.handle.result()
                except RuntimeError:
                    # Restored terminal baseline: listable, result gone.
                    result = None
                if result is not None:
                    statistics = result.statistics
                    result_size = result.pair_count
            return job_status_body(
                job_id=job.job_id,
                state=state,
                priority=job.priority,
                payload=job.payload,
                progress=progress,
                statistics=statistics,
                result_size=result_size,
                error=job.error,
            )

    def counters(self) -> Dict[str, object]:
        """Live counters for ``GET /metrics``."""
        with self._lock:
            counters: Dict[str, object] = dict(self._counters)
            counters["jobs_open"] = sum(
                1 for job in self._jobs.values() if job.open
            )
            counters["workers"] = self.max_workers
            return counters

    # -- cancellation ----------------------------------------------------------------

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the job's state afterwards.

        Running work stops at the next engine-batch boundary; a job that
        never started is finalised as ``cancelled`` immediately.
        Idempotent, and a no-op on terminal jobs.
        """
        finalize = False
        with self._cond:
            job = self._get(job_id)
            if not job.finalized:
                job.handle.cancel_token.set()
                job.pending.clear()
                if not job.running:
                    # Nothing is running and nothing will start: close it
                    # out here rather than waiting for a worker.
                    finalize = True
                self._cond.notify_all()
        if finalize:
            self._finalize(job)
        with self._lock:
            state = job.state
        return "queued" if state == "pending" else state

    # -- the match feed --------------------------------------------------------------

    def stream_matches(
        self, job_id: str, poll_seconds: float = 0.05
    ) -> Iterator[StreamedMatch]:
        """Yield the job's deduplicated match stream, blocking for more.

        Walks the per-shard buffers in shard-id order with a private
        :class:`FirstShardWins`, exactly like the merge path — so the
        yielded sequence is the one ``repro link --stream`` prints, no
        matter how the shards were interleaved across workers, when the
        reader attached, or whether the buffers were rebuilt after a
        restart.  The iterator ends when every shard's buffer is closed.
        Whole-unit jobs (failure-policy runs, resumes) buffer nothing
        until they complete, so their readers block until then.
        """
        with self._cond:
            job = self._get(job_id)
            if not job.streamable:
                raise MatchesUnavailable(
                    f"{job_id} has no match feed: the "
                    f"{job.handle.spec.strategy!r} strategy materialises "
                    f"its result in one shot (and keeps no events a feed "
                    f"could replay) — use the status endpoint"
                )
            if job.plan is not None:
                shard_ids = list(range(job.plan.shard_count))
            else:
                # Whole-unit adaptive job admitted without a plan (fresh
                # failure-policy run): its buffers appear when it ends.
                while not job.finalized:
                    self._cond.wait(poll_seconds)
                shard_ids = sorted(job.buffers)
            if job.state == "failed":
                raise MatchesUnavailable(
                    f"{job_id} failed: {job.error or 'the run raised'}"
                )
        owner = FirstShardWins()
        for shard_id in shard_ids:
            index = 0
            while True:
                with self._cond:
                    buffer = job.buffers.get(shard_id, ())
                    chunk = list(buffer[index:])
                    done = (
                        shard_id in job.buffer_done
                        or (job.finalized and not job.running)
                    )
                    if not chunk and not done:
                        self._cond.wait(poll_seconds)
                        continue
                index += len(chunk)
                for match in chunk:
                    if owner.owns(match.pair, shard_id):
                        yield match
                if done:
                    if not chunk:
                        break
                    # Drain once more in case appends raced the flag.
                    continue

    # -- dispatch --------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            task = self._next_task()
            if task is None:
                return
            job, unit = task
            if unit == _WHOLE_JOB:
                self._run_whole(job)
            else:
                self._run_shard(job, unit)

    def _next_task(self) -> Optional[Tuple[_Job, int]]:
        """Block until work exists (fair-share pick) or shutdown."""
        with self._cond:
            while True:
                if self._stopping:
                    return None
                best: Optional[_Job] = None
                for job_id in self._order:
                    job = self._jobs[job_id]
                    if not job.pending:
                        continue
                    if best is None or (
                        job.virtual_time,
                        -job.priority,
                        job.seq,
                    ) < (best.virtual_time, -best.priority, best.seq):
                        best = job
                if best is None:
                    self._cond.wait()
                    continue
                unit = best.pending.pop(0)
                best.consumed += best.costs.get(unit, 1.0)
                best.running.add(unit)
                if not best.dispatched:
                    best.dispatched = True
                    if best.mode == "shard":
                        best.handle.begin_external(best.plan)
                return best, unit

    def _run_shard(self, job: _Job, shard_id: int) -> None:
        """Execute one shard session, feeding the buffers batch by batch."""
        handle = job.handle
        spec = handle.spec
        plan = job.plan
        left_origins = plan.left_shards[shard_id].origins
        right_origins = plan.right_shards[shard_id].origins
        tag = shard_id if spec.shards > 1 else None
        outcome: Optional[ShardOutcome] = None
        try:
            left, right = plan.shard_streams(shard_id)
            bus = EventBus()
            collector = handle.progress_collector
            if collector is not None:
                collector.attach(bus)
            started = time.perf_counter()
            session = JoinSession(
                left, right, plan.attribute, spec.run_config, bus=bus
            )
            for batch in session.run_batches(
                max_batch=self._shard_batch, cancel=handle.cancel_token
            ):
                matches = [
                    StreamedMatch(
                        left_origins[event.left.ordinal],
                        right_origins[event.right.ordinal],
                        event,
                        tag,
                    )
                    for event in batch
                ]
                with self._cond:
                    job.buffers[shard_id].extend(matches)
                    self._cond.notify_all()
                if self._shard_delay:
                    time.sleep(self._shard_delay)
            result = session.result()
            if not result.never_ran:
                outcome = ShardOutcome(
                    shard_id=shard_id,
                    result=result,
                    left_origins=left_origins,
                    right_origins=right_origins,
                    wall_seconds=time.perf_counter() - started,
                )
                handle.record_shard_outcome(outcome)
                bus.publish(
                    ShardCompleted(shard_id, outcome.result, outcome.wall_seconds)
                )
                if not result.cancelled:
                    # Partial (cancelled) shards are never persisted: a
                    # restarted server re-runs them whole, which is what
                    # keeps resume bit-identical.
                    self.store.record_shard(job.job_id, outcome)
        except BaseException as error:  # noqa: BLE001 - a shard died; fail the job
            with self._cond:
                job.error = f"{type(error).__name__}: {error}"
                job.pending.clear()
                job.running.discard(shard_id)
                handle.cancel_token.set()
                close = not job.running and not job.finalized
                self._cond.notify_all()
            if close:
                self._fail(job)
            return
        finalize = False
        with self._cond:
            job.running.discard(shard_id)
            if outcome is not None and not outcome.result.cancelled:
                job.buffer_done.add(shard_id)
                job.persisted.add(shard_id)
                self._counters["shards_completed"] += 1
            if not job.pending and not job.running and not job.finalized:
                finalize = True
            self._cond.notify_all()
        if finalize:
            if job.error is not None:
                # A sibling shard raised while this one was draining.
                self._fail(job)
            else:
                self._finalize(job)
        if self._on_shard_complete is not None:
            self._on_shard_complete(job.job_id, shard_id)

    def _run_whole(self, job: _Job) -> None:
        """Execute a single-unit job (baseline / failure-managed / resume)."""
        handle = job.handle
        try:
            if job.resume:
                handle.resume()
            else:
                handle.run()
        except BaseException as error:  # noqa: BLE001 - surface via the status body
            with self._cond:
                job.error = f"{type(error).__name__}: {error}"
                job.running.discard(_WHOLE_JOB)
                self._cond.notify_all()
            self._fail(job)
            return
        # Persist the shards this run produced (a resume reuses restored
        # outcomes verbatim — those are already on disk).
        fresh = [
            outcome
            for outcome in handle.shard_outcomes
            if not outcome.result.cancelled
            and outcome.shard_id not in job.persisted
        ]
        for outcome in fresh:
            self.store.record_shard(job.job_id, outcome)
        with self._cond:
            job.running.discard(_WHOLE_JOB)
            for outcome in fresh:
                job.persisted.add(outcome.shard_id)
            if job.streamable:
                self._rebuild_buffers(job)
            self._counters["shards_completed"] += len(fresh)
            self._cond.notify_all()
        self._finalize(job)

    def _finalize(self, job: _Job) -> None:
        """Close the job out: merge (shard mode), set status, persist it."""
        handle = job.handle
        if job.mode == "shard":
            if handle.state == "pending":
                # Cancelled before the first dispatch: open and close an
                # empty external run so result()/state are consistent.
                handle.begin_external(job.plan)
            if handle.state == "running":
                handle.finish_external()
        elif handle.state == "pending":
            # Whole-unit job cancelled before dispatch: run() observes
            # the pre-set token immediately and returns the empty
            # cancelled result without executing anything.
            handle.run()
        state = handle.state
        with self._cond:
            self._close_job(job, state)
            for shard_id in list(job.buffers):
                job.buffer_done.add(shard_id)
            self._cond.notify_all()

    def _fail(self, job: _Job) -> None:
        """Close the job out as ``failed`` (its error is already recorded)."""
        handle = job.handle
        if handle.state in ("pending", "running"):
            handle.fail_external(RuntimeError(job.error or "job failed"))
        with self._cond:
            self._close_job(job, "failed")
            for shard_id in list(job.buffers):
                job.buffer_done.add(shard_id)
            self._cond.notify_all()

    def _close_job(self, job: _Job, state: str) -> None:
        """Mark terminal state + persist it (call with the lock held)."""
        if job.finalized:
            return
        job.finalized = True
        if state == "finished":
            self._counters["jobs_finished"] += 1
        elif state == "cancelled":
            self._counters["jobs_cancelled"] += 1
        elif state == "failed":
            self._counters["jobs_failed"] += 1
        if not self._stopping:
            self.store.set_status(job.job_id, state)
