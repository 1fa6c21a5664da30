"""In-process and local process-pool executors."""

from __future__ import annotations

import contextlib
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterator, Optional, Sequence

from ..core.app import ErrorTolerantApp
from ..core.outcomes import RunRecord
from .base import Executor, RunTask, make_record, make_records


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
            yield from make_records(self.apps[task[0]], self.config, [task])


# ----------------------------------------------------------------------
# Process-pool plumbing.  The applications (compiled, goldens and
# checkpoint stores warm) and the config reach each worker once, through
# the pool initializer: inherited copy-on-write under the fork start
# method, pickled (without checkpoint snapshots) otherwise.  Tasks are
# tiny (app_name, run_index, errors, mode) tuples.
# ----------------------------------------------------------------------
_WORKER_APPS: Dict[str, ErrorTolerantApp] = {}
_WORKER_CONFIG = None


def _campaign_worker_init(apps: Dict[str, ErrorTolerantApp], config) -> None:
    global _WORKER_APPS, _WORKER_CONFIG
    _WORKER_APPS = apps
    _WORKER_CONFIG = config
    # Ctrl-C is the parent's to handle: it cancels the queued tasks and
    # waits for the running ones, so a worker must not die mid-task.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _campaign_worker_run(task: RunTask) -> RunRecord:
    app_name, run_index, errors, mode = task
    return make_record(_WORKER_APPS[app_name], _WORKER_CONFIG, run_index,
                       errors, mode)


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
    """

    name = "pool"

    #: Map chunks per worker: enough to balance a hang-heavy chunk
    #: against the others.
    CHUNKS_PER_WORKER = 16
    #: Most runs in one map chunk.  Each work item costs about 2 kB in
    #: this process and 0.4 ms of transfer (94,000 no-op items on a 2-CPU
    #: host), which big sweeps feel; a chunk's records return together.
    MAX_CHUNK = 16

    def __init__(self, apps, config) -> None:
        super().__init__(apps, config)
        self._pool: Optional[ProcessPoolExecutor] = None

    def start(self) -> None:
        if self._pool is None:
            # Warm first: the workers get the applications as they are now.
            super().start()
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.parallel,
                initializer=_campaign_worker_init,
                initargs=(self.apps, self.config),
            )

    def run(self, tasks: Sequence[RunTask]) -> Iterator[RunRecord]:
        if self._pool is None:
            self.start()
        tasks = list(tasks)
        chunksize = max(1, min(self.MAX_CHUNK,
                               len(tasks) // (self.config.parallel
                                              * self.CHUNKS_PER_WORKER)))
        return self._pool.map(_campaign_worker_run, tasks,
                              chunksize=chunksize)

    def close(self) -> None:
        if self._pool is not None:
            pool, self._pool = self._pool, None
            # Queued tasks are cancelled, so an interrupted sweep waits
            # only for the runs already in flight.
            with _interrupts_held():
                pool.shutdown(cancel_futures=True)
