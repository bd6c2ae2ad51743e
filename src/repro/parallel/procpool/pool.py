"""A warm, persistent worker pool over real OS processes.

A serving workload of thousands of small requests must amortise process
start-up, tree builds and plan publication, so
:class:`PersistentWorkerPool` keeps ``P`` workers alive across requests:
the parent pushes small picklable tasks down one queue, workers push
results back up another, and molecule-sized state travels exclusively
through :class:`~repro.parallel.procpool.shm.SharedArrayBundle` segments
the workers attach to and cache.

The pool is deliberately generic (it knows nothing about energies); the
serving fleet in :mod:`repro.serve.fleet` supplies the worker loop.  Like
the rest of this package it is the *only* sanctioned home for raw
``multiprocessing`` use (repro-lint REP004).

Lifecycle contract (ISSUE 4 fleet hygiene):

* :meth:`shutdown` is idempotent -- every path (explicit close, context
  manager exit, error unwinding) may call it, in any order, any number
  of times;
* a pool dropped without shutdown is reaped by a ``weakref.finalize``
  that terminates the workers, so a garbage-collected fleet mid-run does
  not strand processes (shared segments carry their own finalizers, see
  :mod:`.shm`).
"""

from __future__ import annotations

import time
import weakref
from queue import Empty
from typing import Any, Callable

#: Environment override for the multiprocessing start method ("fork",
#: "spawn", "forkserver"); unset uses the platform default.
START_METHOD_ENV = "REPRO_PROCPOOL_START"

#: Seconds the parent waits in :meth:`PersistentWorkerPool.next_result`
#: before declaring the pool wedged.
DEFAULT_RESULT_TIMEOUT = 300.0

#: Task queue sentinel telling a worker to exit its loop.
SHUTDOWN = None

#: A worker loop: ``fn(rank, task_queue, result_queue)``; must be a
#: module-level callable so it survives the spawn start method.
WorkerLoop = Callable[[int, Any, Any], None]


class PoolError(RuntimeError):
    """A worker died, reported an error, or the pool timed out."""


def _terminate_procs(procs: list) -> None:
    """Finalizer: kill any still-running workers of an abandoned pool."""
    for p in procs:
        try:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5)
        except Exception:
            pass


class PersistentWorkerPool:
    """``P`` long-lived worker processes draining one shared task queue.

    Parameters
    ----------
    nworkers:
        Pool width.  Workers race for tasks, so independent tasks load
        balance themselves.
    worker_loop:
        Module-level ``fn(rank, task_queue, result_queue)`` each worker
        runs until it dequeues :data:`SHUTDOWN`.
    start_method:
        ``fork``/``spawn``/``forkserver``; defaults to the
        :data:`START_METHOD_ENV` environment override, then the platform
        default.
    """

    def __init__(self, nworkers: int, worker_loop: WorkerLoop, *,
                 start_method: str | None = None) -> None:
        import multiprocessing as mp
        import os

        if nworkers < 1:
            raise ValueError("nworkers must be >= 1")
        method = start_method or os.environ.get(START_METHOD_ENV) or None
        ctx = mp.get_context(method)
        self.nworkers = nworkers
        self.start_method = method or "default"
        self._ctx = ctx
        self._worker_loop = worker_loop
        self.respawns = 0
        self.tasks = ctx.Queue()
        self.results = ctx.Queue()
        self._procs = [ctx.Process(target=worker_loop,
                                   args=(rank, self.tasks, self.results),
                                   daemon=True)
                       for rank in range(nworkers)]
        self._closed = False
        for p in self._procs:
            p.start()
        self._finalizer = weakref.finalize(self, _terminate_procs,
                                           list(self._procs))

    # -- submission ----------------------------------------------------
    def submit(self, task: Any) -> None:
        """Enqueue one picklable task for whichever worker is free next."""
        if self._closed:
            raise PoolError("pool is shut down")
        self.tasks.put(task)

    # -- collection ----------------------------------------------------
    def next_result(self, *,
                    timeout: float = DEFAULT_RESULT_TIMEOUT) -> Any:
        """Dequeue one worker result, polling for worker death.

        Raises :class:`PoolError` when a worker exits abnormally or no
        result arrives within ``timeout`` -- the pool never deadlocks on
        a dead peer.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.results.get(timeout=0.25)
            except Empty:
                dead = [p for p in self._procs
                        if p.exitcode not in (None, 0)]
                if dead:
                    raise PoolError(
                        "pool worker(s) died without reporting, exit codes "
                        f"{[p.exitcode for p in dead]}")
                if time.monotonic() > deadline:
                    raise PoolError(
                        f"pool stalled for {timeout:.0f}s waiting on a "
                        "worker result")

    def alive(self) -> int:
        """Number of workers currently running."""
        return sum(1 for p in self._procs if p.is_alive())

    def respawn(self) -> int:
        """Replace every exited worker with a fresh process at the same
        rank; returns how many were replaced.

        This is the fleet's degraded-mode recovery: a worker killed
        mid-task (OOM, segfault, crash injection) loses *that* task, but
        the pool keeps its queues -- later tasks land on the replacement.
        The replacement starts with a cold cache (worker state died with
        the process); correctness is unaffected because all shared state
        lives in parent-owned segments.
        """
        if self._closed:
            raise PoolError("pool is shut down")
        replaced = 0
        for rank, proc in enumerate(self._procs):
            if proc.exitcode is None:
                continue
            proc.join(timeout=5)
            fresh = self._ctx.Process(
                target=self._worker_loop,
                args=(rank, self.tasks, self.results), daemon=True)
            fresh.start()
            self._procs[rank] = fresh
            replaced += 1
        if replaced:
            self.respawns += replaced
            # Re-arm the abandoned-pool finalizer over the live set.
            self._finalizer.detach()
            self._finalizer = weakref.finalize(self, _terminate_procs,
                                               list(self._procs))
        return replaced

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self, *, timeout: float = 10.0) -> None:
        """Stop every worker and reap the queues.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            try:
                self.tasks.put(SHUTDOWN)
            except (ValueError, OSError):
                break  # queue already torn down
        for p in self._procs:
            p.join(timeout=timeout)
        _terminate_procs(self._procs)
        self._finalizer.detach()
        for q in (self.tasks, self.results):
            try:
                q.close()
                q.cancel_join_thread()
            except (ValueError, OSError):
                pass

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
