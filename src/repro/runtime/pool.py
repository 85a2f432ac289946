"""The one pool of worker processes that process-backend shards run on.

A :class:`WorkerPool` wraps a fork-context ``ProcessPoolExecutor`` whose
workers are all forked at launch and replaced when one dies.  Library
runs share one lazily created instance per process (:func:`shared_pool`),
shut down at interpreter exit; the server's scheduler keeps its own,
forked before its threads start.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

from repro.runtime.handoff import share_segment_tracker

__all__ = ["WorkerPool", "shared_pool"]

#: Seconds between a worker's checks that its parent is still alive.
_PARENT_POLL_SECONDS = 0.5


def _exit_with_parent(parent: int) -> None:
    """Exit this worker process once ``parent`` is no longer its parent."""
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _worker_signals(parent: int) -> None:
    """Worker initializer: ignore SIGINT, die on SIGTERM, die with the parent.

    Ctrl-C signals the whole process group, but the parent's own shutdown
    stops the workers cleanly.  SIGTERM keeps its default action even if
    the parent installed a handler before the fork: when a worker dies,
    the executor terminates the survivors with SIGTERM and joins them.  A
    parent killed outright runs no shutdown, so each worker watches its
    parent pid (``parent``, taken before the fork) from a daemon thread.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(
        target=_exit_with_parent,
        args=(parent,),
        name="linkage-parent-watch",
        daemon=True,
    ).start()


class WorkerPool:
    """``max_workers`` worker processes, forked at :meth:`start` or first use."""

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()

    def _launch(self) -> ProcessPoolExecutor:
        """An executor whose ``max_workers`` processes are all forked on return."""
        share_segment_tracker()
        executor = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_signals,
            initargs=(os.getpid(),),
        )
        # Under fork the first submit launches every worker at once.
        executor.submit(os.getpid).result()
        return executor

    def start(self) -> None:
        """Fork the workers now rather than at the first submit (idempotent)."""
        with self._lock:
            if self._executor is None and not self._closed:
                self._executor = self._launch()

    def submit(self, fn: Callable, *args) -> Future:
        """Schedule ``fn(*args)`` on a worker, replacing a broken executor.

        A worker that died broke the executor and failed every future in
        flight on it.  A replacement forked from a threaded process could
        inherit a lock another thread held at that instant.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("the worker pool is shut down")
            if self._executor is None:
                self._executor = self._launch()
            try:
                return self._executor.submit(fn, *args)
            except BrokenProcessPool:
                self._executor.shutdown(wait=False)
                self._executor = self._launch()
                return self._executor.submit(fn, *args)

    def grow(self, max_workers: int) -> None:
        """Make room for ``max_workers`` workers; the old executor drains."""
        with self._lock:
            if max_workers <= self.max_workers:
                return
            self.max_workers = max_workers
            old, self._executor = self._executor, None
        if old is not None:
            old.shutdown(wait=False)

    def shutdown(self) -> None:
        """Stop the workers; queued work is cancelled (idempotent)."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


_shared: Optional[WorkerPool] = None
_shared_lock = threading.Lock()


def shared_pool(workers: int) -> WorkerPool:
    """This process's pool for library runs, with room for ``workers``."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = WorkerPool(workers)
            atexit.register(_shared.shutdown)
        else:
            _shared.grow(workers)
        return _shared


def _forget_shared() -> None:
    """A forked child must not use (or shut down) its parent's executor."""
    global _shared, _shared_lock
    if _shared is not None:
        atexit.unregister(_shared.shutdown)
    _shared = None
    _shared_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_shared)
