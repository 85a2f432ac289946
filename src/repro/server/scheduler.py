"""Multi-job fair-share scheduling over one shared pool of worker processes.

The scheduler is what turns :class:`~repro.jobs.handle.JobHandle` — a
one-shot, in-process object — into a *service*: N concurrent jobs share
``max_workers`` worker processes at **shard** granularity, so a long job
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

Adaptive jobs without failure knobs are driven *shard-granular* on the
scheduler's :class:`~repro.runtime.pool.WorkerPool` of ``max_workers``
processes, forked in :meth:`start` before any scheduler thread exists.
The ``max_workers`` scheduler threads are the fair-share dispatchers:
each picks a shard, submits the shard driver's own task
(:func:`~repro.runtime.parallel._shard_task`) and blocks on its future,
which releases the GIL.  The job's plan blocks are published to shared
memory at its first dispatch and released when the job closes, however
it closes.  Outcomes come back as match columns through the handle's
external-driver surface (``begin_external`` / ``record_shard_outcome`` /
``finish_external``).  A worker death loses every shard in flight on
the pool, whichever job it belongs to; nothing of such a shard was
persisted, so it is re-queued once, and a second loss fails its job.

Three job shapes instead run as a single scheduled unit on a scheduler
thread (costed at their full volume): baseline strategies (their
operators are not incremental), jobs with a failure policy or fault plan
(whose semantics live in the shard driver), and restart-resumes
(:meth:`JobHandle.resume` re-runs exactly the missing shards); their
``process``-backend shards run on the scheduler's pool.

Cancellation
------------

Each shard-driven job owns a one-byte
:class:`~repro.runtime.handoff.CancelFlag` in shared memory.  Its name
travels in every task; the worker passes the flag to ``run_batches`` as
its cancel token.  :meth:`cancel` and :meth:`shutdown` set it next to the
handle's own token, so a shard running in a worker stops at its next
engine batch (``shard_batch`` steps).  A partial shard's matches stay in
the job's result and feed, but it is never persisted.

Match feeds
-----------

Matches and progress surface **per shard**: when a shard completes, its
matches are encoded as NDJSON lines, and once every lower shard has
completed they are appended to the job's feed buffer through one
:class:`~repro.runtime.sharding.FirstShardWins` dedup — the merge path's
rule.  Readers (:meth:`stream_matches`) each keep one byte offset into
that buffer and block on a condition variable for more.  Any number of
readers, attaching at any time (including after completion, or after a
restart rebuilt the feed from persisted outcomes), receive the same byte
sequence ``repro link --stream`` prints for the same spec.

A job that closes is compacted: it keeps its state, priority, error, the
spec echo, the final progress snapshot, statistics, result size and its
deduplicated feed, frozen into one ``bytes`` object — not its handle,
plan, inputs or match objects.

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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.jobs.builder import JobSpec
from repro.jobs.handle import DEFAULT_STREAM_BATCH, JobHandle, match_line
from repro.jobs.serialization import (
    PayloadError,
    build_canonical_job,
    build_job,
    normalize_payload,
)
from repro.runtime.collectors import ProgressSnapshot
from repro.runtime.handoff import CancelFlag
from repro.runtime.parallel import _run_shard_task, _shard_task, shared_memory
from repro.runtime.pool import WorkerPool
from repro.runtime.shard_result import mode_of
from repro.runtime.sharding import (
    FirstShardWins,
    PublishedPlanBlocks,
    ShardOutcome,
    ShardPlan,
)
from repro.server.store import JobStore
from repro.server.wire import job_status_body, spec_echo

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

#: One shard's feed before dedup: each match's global pair and NDJSON line.
_FeedLines = List[Tuple[Tuple[int, int], bytes]]


@dataclass(eq=False)
class _Job:
    """One admitted job's scheduler-side state (all mutation under the lock).

    While the job is open it holds its live machinery: the handle, the
    plan, the published blocks and cancel flag, and the feed lines of
    completed shards that wait for a lower shard.  Closing it
    (:meth:`JobScheduler._compact`) drops all of that, freezes the feed
    and keeps what the status body needs.
    """

    job_id: str
    seq: int
    priority: int
    #: ``shard`` (scheduler-driven sessions) or ``whole`` (single unit).
    mode: str
    #: The status body's spec echo: the payload without its inline rows.
    spec: Dict[str, object]
    #: Whether the job has a match feed (adaptive jobs only).
    streamable: bool
    handle: Optional[JobHandle]
    plan: Optional[ShardPlan] = None
    #: The plan's shared-memory blocks and the job's cancel flag, from
    #: the first dispatch until the job closes.
    blocks: Optional[PublishedPlanBlocks] = None
    cancel_flag: Optional[CancelFlag] = None
    #: Pairwise-volume cost per dispatch unit (``whole`` jobs: one entry).
    costs: Dict[int, float] = field(default_factory=dict)
    consumed: float = 0.0
    pending: List[int] = field(default_factory=list)
    running: Set[int] = field(default_factory=set)
    #: Shards re-queued after a worker death broke the pool under them.
    requeued: Set[int] = field(default_factory=set)
    dispatched: bool = False
    #: Set by the one thread that closes the job (see ``_claim_close``).
    closing: bool = False
    #: Terminal and compacted.
    finalized: bool = False
    #: Shard ids already written to the store (restored or recorded live).
    persisted: Set[int] = field(default_factory=set)
    error: Optional[str] = None
    resume: bool = False
    #: Completed shards' feed lines, by shard id, not yet folded.
    unfolded: Dict[int, _FeedLines] = field(default_factory=dict)
    #: The lowest shard id not yet folded into :attr:`feed`.
    next_fold: int = 0
    owner: Optional[FirstShardWins] = field(default_factory=FirstShardWins)
    #: The deduplicated NDJSON feed: appended to while the job is open,
    #: frozen into ``bytes`` when it closes (``b""`` for failed jobs).
    feed: Union[bytearray, bytes] = field(default_factory=bytearray)
    # -- what a closed job keeps besides its feed ----------------------------------
    final_state: Optional[str] = None
    progress: Optional[ProgressSnapshot] = None
    statistics: Optional[Dict[str, object]] = None
    result_size: Optional[int] = None

    @property
    def virtual_time(self) -> float:
        return self.consumed / self.priority

    @property
    def state(self) -> str:
        """Lifecycle state: the final one once closed, else the handle's."""
        return self.final_state or self.handle.state

    @property
    def open(self) -> bool:
        """Still counts against the admission queue depth."""
        return not self.finalized


def _shard_driven(spec: JobSpec) -> bool:
    """Whether the scheduler dispatches ``spec``'s shards itself: adaptive
    jobs with no failure policy or fault plan of their own."""
    return (
        spec.strategy == "adaptive"
        and spec.failure_policy is None
        and spec.fault_plan is None
    )


def _feed_lines(outcome: ShardOutcome, tag_shards: bool) -> _FeedLines:
    """One shard's matches as (global pair, NDJSON line), in emission order.

    Read straight off the shard's match columns; no event is built.
    """
    result = outcome.result
    tag = outcome.shard_id if tag_shards else None
    lines: _FeedLines = []
    for pair, similarity, step, flags in zip(
        outcome.matched_pairs(), result.similarity, result.step, result.flags
    ):
        mode = mode_of(flags).value
        lines.append((pair, match_line(pair[0], pair[1], similarity, mode, step, tag)))
    return lines


class JobScheduler:
    """The fair-share scheduler (see the module docstring).

    Parameters
    ----------
    max_workers:
        The shared worker budget: how many worker processes (and
        dispatching threads) run shard sessions or single-unit jobs
        concurrently, across *all* jobs.
    max_queued:
        Admission bound on open jobs; exceeding it raises
        :class:`QueueFull`.
    store:
        The persistence backend (defaults to :class:`JobStore`, which
        keeps nothing).
    autostart:
        Start the workers immediately.  Fairness tests pass ``False``,
        queue several jobs, then :meth:`start` — making the dispatch
        order deterministic and observable.
    shard_batch:
        Engine steps per batch in scheduler-driven shard sessions (the
        granularity at which cancellation lands in a worker).
    shard_delay:
        Testing/CI hook: seconds a worker sleeps after each engine batch
        of a scheduler-driven shard, so smoke tests can reliably catch
        jobs mid-run (cancel them, SIGTERM the server).  0 in production.
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
        self.store = store if store is not None else JobStore()
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
        self._pool = WorkerPool(max_workers)
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
        """Fork the worker processes, then start the threads (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
            # Fork before any scheduler thread exists: a child forked
            # from a threaded process inherits every lock those threads
            # held, with no thread left to release it.
            self._pool.start()
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

        Running shard sessions observe their job's cancel flag at the
        next batch boundary and stop *without* being recorded (only
        complete shards are persisted), so a disk-backed server resumes
        them whole after restart.  No terminal status is written for
        interrupted jobs — their absence is what marks them resumable.
        """
        with self._cond:
            self._stopping = True
            for job in self._jobs.values():
                if not job.closing:
                    self._request_cancel(job)
            self._cond.notify_all()
        for thread in self._workers:
            thread.join(timeout)
        self._pool.shutdown()
        with self._cond:
            for job in self._jobs.values():
                self._release_shared(job)
        self.store.close()

    # -- admission -------------------------------------------------------------------

    def submit(self, payload: Mapping) -> str:
        """Validate, admit and enqueue one job; returns its id.

        Raises :class:`~repro.jobs.serialization.PayloadError` on an
        invalid payload and :class:`QueueFull` past the depth cap.
        """
        canonical = normalize_payload(payload)
        handle = build_canonical_job(canonical)
        # The plan routes and encodes both inputs: build it before taking
        # the lock every worker thread's fold and dispatch waits on.
        plan = handle.spec.shard_plan() if _shard_driven(handle.spec) else None
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
            job = self._admit(job_id, handle, canonical, plan)
            self._counters["jobs_submitted"] += 1
            # Persist the admission before any worker can possibly write
            # a shard record for it: replay drops shard lines that
            # precede their job line.
            self.store.add_job(job_id, dict(canonical))
            self._cond.notify_all()
        return job.job_id

    def _admit(
        self,
        job_id: str,
        handle: JobHandle,
        canonical: Mapping[str, object],
        plan: Optional[ShardPlan],
    ) -> _Job:
        """Register a built handle under the lock and enqueue its work.

        ``plan`` is the handle's shard plan, built by the caller before
        it took the lock; a shard-driven job (:func:`_shard_driven`)
        needs it, other jobs ignore it.
        """
        spec = handle.spec
        job = _Job(
            job_id=job_id,
            seq=self._next_seq,
            priority=int(canonical.get("priority", 1)),
            mode="shard" if _shard_driven(spec) else "whole",
            spec=spec_echo(canonical),
            streamable=spec.strategy == "adaptive",
            handle=handle,
        )
        handle._pool = self._pool
        self._next_seq += 1
        if job.mode == "shard":
            job.plan = plan
            sizes = plan.shard_sizes()
            for shard_id, (left_size, right_size) in enumerate(sizes):
                job.costs[shard_id] = float(max(left_size * right_size, 1))
            job.pending = list(range(job.plan.shard_count))
        else:
            left = len(spec.left) if hasattr(spec.left, "__len__") else 1
            right = len(spec.right) if hasattr(spec.right, "__len__") else 1
            job.costs[_WHOLE_JOB] = float(max(left * right, 1))
            job.pending = [_WHOLE_JOB]
        self._jobs[job_id] = job
        self._order.append(job_id)
        return job

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
        state).  A shard record that does not decode, or does not fit the
        rebuilt plan, counts as never persisted: its job is re-enqueued
        as a resume unit even when its stored status is terminal, and the
        shard runs again.  A job whose stored payload no longer builds is
        skipped and recorded in :attr:`unrestorable`; every other job
        still restores.  Job numbering continues after the highest stored id,
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
            # Built outside the lock, as on submit.
            plan = spec.shard_plan() if spec.strategy == "adaptive" else None
            with self._cond:
                if seq is not None:
                    self._next_seq = max(self._next_seq, seq)
                job = self._admit(stored.job_id, handle, stored.payload, plan)
                job.pending.clear()
                if plan is not None:
                    job.plan = plan
                    outcomes = [
                        stored.outcomes[shard_id]
                        for shard_id in sorted(stored.outcomes)
                        if stored.outcomes[shard_id].fits(plan)
                    ]
                    lost = len(outcomes) < len(stored.outcomes) or bool(
                        stored.undecodable
                    )
                    job.persisted = {outcome.shard_id for outcome in outcomes}
                    handle.restore(plan, outcomes)
                    job.unfolded.update(
                        self._unfolded_lines(job, handle.shard_outcomes)
                    )
                    self._fold(job)
                    if (stored.status is None or lost) and not handle.finished:
                        # Interrupted mid-run: re-enqueue as one resume
                        # unit, costed at the missing shards' volume.
                        job.resume = True
                        job.mode = "whole"
                        sizes = plan.shard_sizes()
                        missing_cost = sum(
                            max(sizes[s][0] * sizes[s][1], 1)
                            for s in range(plan.shard_count)
                            if s not in job.persisted
                        )
                        job.costs = {_WHOLE_JOB: float(max(missing_cost, 1))}
                        job.pending = [_WHOLE_JOB]
                        resumed.append(job.job_id)
                        self._counters["jobs_resumed"] += 1
                    else:
                        if stored.status == "failed":
                            job.error = "failed before restart"
                        elif stored.status is None:
                            # Every shard is on disk but the status line
                            # is not: write the status derived here.
                            self.store.set_status(job.job_id, handle.state)
                        self._compact(job, stored.status or handle.state)
                elif stored.status is None:
                    # Interrupted baseline: re-run it whole on the fresh
                    # handle (pending from _admit is already correct).
                    job.pending = [_WHOLE_JOB]
                    resumed.append(job.job_id)
                    self._counters["jobs_resumed"] += 1
                else:
                    # Terminal baseline: listable, but its result was
                    # never persisted (baselines record no outcomes).
                    if stored.status != "finished":
                        job.error = f"{stored.status} before restart"
                    self._compact(job, stored.status)
                self._cond.notify_all()
        return resumed

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
            progress = job.progress
            if not job.finalized:
                if state != "running" and (
                    state == "pending" or job.pending or job.running
                ):
                    # Admitted but not dispatched yet — including a
                    # restored partial run awaiting its resume unit.
                    state = "queued"
                collector = job.handle.progress_collector
                if collector is not None:
                    progress = collector.snapshot()
            return job_status_body(
                job_id=job.job_id,
                state=state,
                priority=job.priority,
                payload=job.spec,
                progress=progress,
                statistics=job.statistics,
                result_size=job.result_size,
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
        Idempotent, and a no-op on a job that is already closing.
        """
        close = False
        with self._cond:
            job = self._get(job_id)
            if not job.closing:
                self._request_cancel(job)
                job.pending.clear()
                # Nothing is running and nothing will start: close it out
                # here rather than waiting for a worker.
                close = not job.running and self._claim_close(job)
                self._cond.notify_all()
        if close:
            self._finalize(job)
        with self._lock:
            state = job.state
        return "queued" if state == "pending" else state

    @staticmethod
    def _request_cancel(job: _Job) -> None:
        """Set the job's cancel tokens, in-process and cross-process."""
        job.handle.cancel_token.set()
        if job.cancel_flag is not None:
            job.cancel_flag.set()

    # -- the match feed --------------------------------------------------------------

    def stream_matches(
        self, job_id: str, poll_seconds: float = 0.05
    ) -> Iterator[bytes]:
        """Yield the job's deduplicated NDJSON feed, blocking for more.

        Each yielded chunk holds whole lines: whatever the feed gained
        since the reader's last chunk.  Their concatenation is the byte
        sequence ``repro link --stream`` prints, no matter how the shards
        were interleaved across workers, when the reader attached, or
        whether the feed was rebuilt after a restart.  The iterator ends
        when the job closes.  Whole-unit jobs (failure-policy runs,
        resumes) fold nothing until they complete, so their readers block
        until then.
        """
        with self._cond:
            job = self._get(job_id)
            if not job.streamable:
                raise MatchesUnavailable(
                    f"{job_id} has no match feed: the "
                    f"{job.spec['strategy']!r} strategy materialises "
                    f"its result in one shot (and keeps no events a feed "
                    f"could replay) — use the status endpoint"
                )
            if job.state == "failed":
                raise MatchesUnavailable(
                    f"{job_id} failed: {job.error or 'the run raised'}"
                )
        sent = 0  # bytes of job.feed yielded so far
        while True:
            with self._cond:
                while len(job.feed) == sent and not job.finalized:
                    self._cond.wait(poll_seconds)
                chunk = bytes(job.feed[sent:])
                done = job.finalized
            if chunk:
                sent += len(chunk)
                yield chunk
            if done:
                return

    def _unfolded_lines(
        self, job: _Job, outcomes: Iterable[ShardOutcome]
    ) -> Dict[int, _FeedLines]:
        """Feed lines of the outcomes the job's feed has not seen yet."""
        tag_shards = job.handle.spec.shards > 1
        return {
            outcome.shard_id: _feed_lines(outcome, tag_shards)
            for outcome in outcomes
            if outcome.shard_id >= job.next_fold
            and outcome.shard_id not in job.unfolded
        }

    def _fold(self, job: _Job) -> None:
        """Fold every completed shard whose lower shards are all folded."""
        while job.next_fold in job.unfolded:
            self._fold_shard(job, job.next_fold)
            job.next_fold += 1

    @staticmethod
    def _fold_shard(job: _Job, shard_id: int) -> None:
        owns = job.owner.owns
        for pair, line in job.unfolded.pop(shard_id):
            if owns(pair, shard_id):
                job.feed += line

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
                        best.blocks, best.cancel_flag = shared_memory(best.plan)
                return best, unit

    def _run_shard(self, job: _Job, shard_id: int) -> None:
        """Execute one shard session on the pool and fold its matches."""
        handle = job.handle
        plan = job.plan
        outcome: Optional[ShardOutcome] = None
        try:
            task = _shard_task(
                plan,
                handle.spec.run_config,
                shard_id,
                1,
                job.blocks.descriptors if job.blocks is not None else None,
                cancel_flag=(
                    job.cancel_flag.name if job.cancel_flag is not None else None
                ),
                max_batch=self._shard_batch,
                batch_delay=self._shard_delay,
            )
            # Blocks on the future without holding the GIL.
            _, result, wall_seconds = self._pool.submit(_run_shard_task, task).result()
            if not result.never_ran:
                outcome = ShardOutcome.of(plan, shard_id, result, wall_seconds)
                handle.record_shard_outcome(outcome)
                if not result.cancelled:
                    # Partial (cancelled) shards are never persisted: a
                    # restarted server re-runs them whole, which is what
                    # keeps resume bit-identical.
                    self.store.record_shard(job.job_id, outcome)
                lines = _feed_lines(outcome, handle.spec.shards > 1)
        except BaseException as error:  # noqa: BLE001 - a shard died; fail the job
            with self._cond:
                if (
                    isinstance(error, BrokenProcessPool)
                    and shard_id not in job.requeued
                    and job.error is None
                ):
                    # A worker died and took every shard in flight down
                    # with it.  Nothing of this one was persisted, so it
                    # runs again — once: a shard caught in a second
                    # broken pool fails its job.
                    job.requeued.add(shard_id)
                    job.running.discard(shard_id)
                    job.pending.insert(0, shard_id)
                    self._cond.notify_all()
                    return
                job.error = f"{type(error).__name__}: {error}"
                job.pending.clear()
                job.running.discard(shard_id)
                self._request_cancel(job)
                close = not job.running and self._claim_close(job)
                self._cond.notify_all()
            if close:
                self._fail(job)
            return
        close = False
        with self._cond:
            job.running.discard(shard_id)
            if outcome is not None:
                job.unfolded[shard_id] = lines
                self._fold(job)
                if not outcome.result.cancelled:
                    job.persisted.add(shard_id)
                    self._counters["shards_completed"] += 1
            if not job.pending and not job.running:
                close = self._claim_close(job)
            self._cond.notify_all()
        if close:
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
                close = self._claim_close(job)
                self._cond.notify_all()
            if close:
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
        lines = (
            self._unfolded_lines(job, handle.shard_outcomes)
            if job.streamable
            else {}
        )
        with self._cond:
            job.running.discard(_WHOLE_JOB)
            for outcome in fresh:
                job.persisted.add(outcome.shard_id)
            job.unfolded.update(lines)
            self._fold(job)
            self._counters["shards_completed"] += len(fresh)
            close = self._claim_close(job)
            self._cond.notify_all()
        if close:
            self._finalize(job)

    # -- closing a job ---------------------------------------------------------------

    @staticmethod
    def _claim_close(job: _Job) -> bool:
        """Claim the job's one close (call with the lock held).

        A cancel and the last shard's completion can both find a job with
        nothing left to run; only the first to claim it closes it.
        """
        if job.closing:
            return False
        job.closing = True
        return True

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
        with self._cond:
            self._close_job(job, handle.state)

    def _fail(self, job: _Job) -> None:
        """Close the job out as ``failed`` (its error is already recorded)."""
        handle = job.handle
        if handle.state in ("pending", "running"):
            handle.fail_external(RuntimeError(job.error or "job failed"))
        with self._cond:
            self._close_job(job, "failed")

    def _close_job(self, job: _Job, state: str) -> None:
        """Count, persist and compact a terminal job (lock held)."""
        if state == "finished":
            self._counters["jobs_finished"] += 1
        elif state == "cancelled":
            self._counters["jobs_cancelled"] += 1
        elif state == "failed":
            self._counters["jobs_failed"] += 1
        if not self._stopping:
            self.store.set_status(job.job_id, state)
        self._compact(job, state)

    def _compact(self, job: _Job, state: str) -> None:
        """Keep only what a terminal job reports; drop the rest (lock held).

        What stays: the state, the final progress snapshot, the result's
        statistics and size, and the deduplicated feed, frozen into one
        ``bytes``.  The handle, plan, shared memory, inputs and match
        objects go.
        """
        handle = job.handle
        job.closing = job.finalized = True
        job.final_state = state
        collector = handle.progress_collector
        if collector is not None:
            job.progress = collector.snapshot()
        if state in ("finished", "cancelled"):
            try:
                result = handle.result()
            except RuntimeError:
                # A restored terminal baseline: its result was never
                # persisted.
                result = None
            if result is not None:
                job.statistics = result.statistics
                job.result_size = result.pair_count
        if state == "failed":
            job.feed = b""
        else:
            # A cancelled job may have gaps: fold what completed, in order.
            for shard_id in sorted(job.unfolded):
                self._fold_shard(job, shard_id)
            job.feed = bytes(job.feed)
        self._release_shared(job)
        job.handle = None
        job.plan = None
        job.owner = None
        job.unfolded = {}
        job.costs = {}
        self._cond.notify_all()

    @staticmethod
    def _release_shared(job: _Job) -> None:
        """Unlink the job's plan blocks and cancel flag (idempotent)."""
        if job.blocks is not None:
            job.blocks.release()
            job.blocks = None
        if job.cancel_flag is not None:
            job.cancel_flag.close()
            job.cancel_flag = None
