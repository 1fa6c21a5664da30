"""In-process and local process-pool executors."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

from ..core.app import ErrorTolerantApp
from ..core.outcomes import RunRecord
from .base import Executor, RunTask, make_record, make_records


class SerialExecutor(Executor):
    """Runs every task in the calling process, in order.

    The reference backend: all other executors are tested against its
    record stream.  Golden runs (and, under the fork engine, checkpoint
    stores) are memoized on the application, so repeated ``run`` calls
    only pay for the injected executions themselves.
    """

    name = "serial"

    def run(self, tasks: Sequence[RunTask]) -> List[RunRecord]:
        return make_records(self.app, self.config, tasks)


# ----------------------------------------------------------------------
# Process-pool plumbing.  The application (pre-compiled, goldens warm) and
# the config are shipped once per worker via the pool initializer; tasks
# are tiny (run_index, errors, mode) tuples.
# ----------------------------------------------------------------------
_WORKER_APP: Optional[ErrorTolerantApp] = None
_WORKER_CONFIG = None


def _campaign_worker_init(app: ErrorTolerantApp, config) -> None:
    global _WORKER_APP, _WORKER_CONFIG
    _WORKER_APP = app
    _WORKER_CONFIG = config


def _campaign_worker_run(task: RunTask) -> RunRecord:
    run_index, errors, mode = task
    return make_record(_WORKER_APP, _WORKER_CONFIG, run_index, errors, mode)


class PoolExecutor(Executor):
    """Fans tasks out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Workers receive the app warm (program compiled, goldens cached) via the
    pool initializer and rebuild fork-engine checkpoint stores locally on
    first use — the snapshots are deliberately stripped from the payload
    the pool ships to its workers.  Results come back in task order.
    """

    name = "pool"

    def __init__(self, app: ErrorTolerantApp, config) -> None:
        super().__init__(app, config)
        self._pool: Optional[ProcessPoolExecutor] = None

    def start(self) -> None:
        if self._pool is None:
            # Never spawn more workers than a cell has runs: each idle
            # worker would still pay interpreter spawn + warm-app
            # deserialization in the initializer for nothing.
            self._pool = ProcessPoolExecutor(
                max_workers=max(1, min(self.config.parallel, self.config.runs)),
                initializer=_campaign_worker_init,
                initargs=(self.app, self.config),
            )

    def run(self, tasks: Sequence[RunTask]) -> List[RunRecord]:
        if self._pool is None:
            self.start()
        tasks = list(tasks)
        workers = max(1, self.config.parallel)
        chunksize = max(1, len(tasks) // (workers * 4))
        return list(self._pool.map(_campaign_worker_run, tasks,
                                   chunksize=chunksize))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
