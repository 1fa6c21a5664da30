"""In-process and local process-pool executors."""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Optional, Sequence

from ..apps.registry import cached_app, seed_app_cache
from ..core.app import ErrorTolerantApp
from ..core.outcomes import RunRecord
from .base import Executor, RunTask, chunk_size, make_record, make_records


class SerialExecutor(Executor):
    """Runs every task in the calling process, in order.

    The reference backend: all other executors are tested against its
    record stream.  Golden runs (and, under the fork engine, checkpoint
    stores) are warmed at start and memoized on the applications, so
    ``run`` calls only pay for the injected executions themselves.
    """

    name = "serial"

    def run(self, tasks: Sequence[RunTask]) -> Iterator[RunRecord]:
        # One task per call: each record reaches the caller, and so the
        # store, as soon as it exists.
        for task in tasks:
            yield from make_records(self.apps, self.config, [task])


# ----------------------------------------------------------------------
# Process-pool plumbing.  A pool task names its application by ``(name,
# wire_params())`` and carries the config, and the worker looks the
# application up in its process's warm-app cache
# (:func:`~repro.apps.registry.cached_app`).  A sweep's own pool warms
# its applications and seeds each worker's cache with them through the
# initializer: a no-op under the fork start method, where the worker
# inherits the parent's cache with those cached apps in it, and the only
# warm start under spawn or forkserver (the macOS default, Linux's from
# Python 3.14), where they arrive pickled without checkpoint snapshots.
# A pool shared by many sweeps builds and warms each app on first use.
# ----------------------------------------------------------------------
#: Seconds between a pool worker's checks that its parent still lives.
PARENT_POLL = 1.0


def _pool_worker_init(apps: Sequence[ErrorTolerantApp], nice: int) -> None:
    # The heap a forked worker inherits (warm apps, decodes, checkpoint
    # stores) lives as long as the worker: keep it out of the collector's
    # full collections, which would otherwise walk all of it again.
    gc.freeze()
    if nice and hasattr(os, "nice"):
        # A pool whose owner answers requests while it runs (the campaign
        # daemon's) works below that owner's CPU priority, so the
        # owner's event loop and lane threads preempt job work.  A
        # sweep's own pool passes 0: its owner only waits for records.
        os.nice(nice)
    seed_app_cache(apps)
    # Ctrl-C is the parent's to handle: it cancels the queued tasks and
    # waits for the running ones, so a worker must not die mid-task.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The parent's own SIGTERM handler is not the worker's.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    """End this worker once its parent is gone.

    A parent killed outright (SIGKILL) cannot stop its pool, and an idle
    worker would otherwise wait for tasks forever.
    """
    while os.getppid() == parent:
        time.sleep(PARENT_POLL)
    os._exit(1)


def _pool_worker_run(task) -> RunRecord:
    config, app_name, params, run_index, errors, mode = task
    return make_record(cached_app(app_name, params), config, run_index,
                       errors, mode)


def start_pool(width: int, apps: Sequence[ErrorTolerantApp] = (), *,
               nice: int = 0) -> ProcessPoolExecutor:
    """A process pool of ``width`` campaign workers, started now.

    ``apps`` seed each worker's warm-app cache.  Each worker lowers its
    own CPU priority by ``nice`` (:func:`os.nice`) as it starts.  Under
    the fork start method every worker is forked before this returns, so
    each inherits the caller's state as it is at this call, not at the
    first task.
    """
    pool = ProcessPoolExecutor(max_workers=width,
                               initializer=_pool_worker_init,
                               initargs=(tuple(apps), nice))
    pool.submit(int)  # the first submit starts the workers
    return pool


def stop_pool(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down: cancel its queued tasks, wait for the running
    ones and reap its workers."""
    with _interrupts_held():
        pool.shutdown(cancel_futures=True)


@contextlib.contextmanager
def _interrupts_held():
    """Hold Ctrl-C until the block ends, then raise it.

    A second interrupt while a pool shuts down would abandon the
    shutdown: the workers would never get their stop sentinels, and the
    interpreter would hang at exit joining them.  Only the main thread
    runs Python signal handlers, so elsewhere nothing can interrupt.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    caught = []
    previous = signal.signal(signal.SIGINT,
                             lambda signum, frame: caught.append(signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
        if caught:
            raise KeyboardInterrupt


class PoolExecutor(Executor):
    """Fans tasks out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    ``start`` warms every application in this process, then creates one
    pool of ``config.parallel`` workers for the executor's lifetime.  The
    workers receive the warm applications through the pool initializer,
    so no worker repeats a golden run or a checkpoint capture under the
    fork start method.  Records come back in task order as they finish.

    A ``shared_pool`` set before ``start`` is borrowed instead: a pool
    that outlives this executor and serves other executors too (the
    campaign daemon's).  Nothing is warmed here for it, since its
    workers warm each application on first use, and ``close`` leaves it
    running.
    """

    name = "pool"

    def __init__(self, apps, config) -> None:
        super().__init__(apps, config)
        #: A pool owned elsewhere to run on instead of a pool of our own.
        self.shared_pool: Optional[ProcessPoolExecutor] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._results: Optional[Iterator[RunRecord]] = None

    def start(self) -> None:
        if self._pool is None:
            if self.shared_pool is not None:
                self._pool = self.shared_pool
            else:
                # Warm first: the workers get the applications as they
                # are now.
                super().start()
                self._pool = start_pool(self.config.parallel,
                                        list(self.apps.values()))

    def run(self, tasks: Sequence[RunTask]) -> Iterator[RunRecord]:
        if self._pool is None:
            self.start()
        # One params dict per application and one config for all tasks:
        # a chunk's pickle then carries each of them once.
        params = {name: app.wire_params() for name, app in self.apps.items()}
        config = self.config
        tasks = [(config, app_name, params[app_name], run_index, errors, mode)
                 for app_name, run_index, errors, mode in tasks]
        self._results = self._pool.map(
            _pool_worker_run, tasks,
            chunksize=chunk_size(len(tasks), self.config.parallel))
        return self._results

    def close(self) -> None:
        if self._results is not None:
            # Closing a part-consumed run() cancels its tasks still queued.
            self._results.close()
            self._results = None
        if self._pool is not None:
            pool, self._pool = self._pool, None
            if pool is not self.shared_pool:
                # Queued tasks are cancelled, so an interrupted sweep
                # waits only for the runs already in flight.
                stop_pool(pool)
