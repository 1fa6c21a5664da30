"""Pluggable campaign executors.

A sweep is a batch of ``(app_name, run_index, errors, mode)`` tasks whose
injection plans derive purely from ``(base_seed, run_index, errors)``;
an executor decides *where* those tasks run:

* :class:`SerialExecutor` — in the calling process (the reference);
* :class:`PoolExecutor` — one local
  :class:`~concurrent.futures.ProcessPoolExecutor` for the whole sweep,
  its own or one it borrows (the campaign daemon's, shared by its jobs);
* :class:`SocketExecutor` — sharded over TCP to ``python -m repro.exec.worker``
  processes on this or other hosts.

The backend is a pure function of the
:class:`~repro.core.campaign.CampaignConfig` (:func:`resolve_executor_name`),
and all backends produce bit-identical record streams.  One executor
serves every application of a sweep and takes each round's pending
tasks, across cells, in one call.  The engine is orthogonal: every backend executes its share of
the tasks run by run (:func:`~repro.exec.base.make_record`) on the
configured engine.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

from .base import Executor, RunTask, make_record, make_records
from .local import PoolExecutor, SerialExecutor
from .tcp import (
    PROTOCOL_VERSION,
    ChunkDeadlineError,
    FleetLostError,
    FrameTooLargeError,
    HandshakeError,
    HeartbeatTimeout,
    ProtocolError,
    SocketExecutor,
    WorkerTaskError,
    parse_listen_address,
    parse_worker_address,
)

#: Registry of executor backends by name.
EXECUTORS = {
    SerialExecutor.name: SerialExecutor,
    PoolExecutor.name: PoolExecutor,
    SocketExecutor.name: SocketExecutor,
}


def resolve_executor_name(config) -> str:
    """Backend a config runs on: ``socket`` when worker addresses are
    configured, ``pool`` when ``parallel > 1``, ``serial`` otherwise."""
    if config.workers:
        return "socket"
    if config.parallel > 1:
        return "pool"
    return "serial"


def create_executor(apps: Iterable, config,
                    pending: Optional[int] = None) -> Executor:
    """Instantiate (but do not start) the backend ``config`` resolves to.

    ``apps`` are the applications the tasks name.  ``pending``, the
    number of runs the executor will be given, caps the pool width at
    ``min(parallel, pending)``; a width of 1 runs serially.
    """
    if pending is not None and config.parallel > max(1, pending):
        config = dataclasses.replace(config, parallel=max(1, pending))
    return EXECUTORS[resolve_executor_name(config)](apps, config)


__all__ = [
    "ChunkDeadlineError",
    "EXECUTORS",
    "Executor",
    "FleetLostError",
    "FrameTooLargeError",
    "HandshakeError",
    "HeartbeatTimeout",
    "PROTOCOL_VERSION",
    "PoolExecutor",
    "ProtocolError",
    "RunTask",
    "SerialExecutor",
    "SocketExecutor",
    "WorkerTaskError",
    "create_executor",
    "make_record",
    "make_records",
    "parse_listen_address",
    "parse_worker_address",
    "resolve_executor_name",
]
