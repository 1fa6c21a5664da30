"""Pluggable campaign executors.

A campaign cell is a batch of ``(run_index, errors, mode)`` tasks whose
injection plans derive purely from ``(base_seed, run_index, errors)``;
an executor decides *where* those tasks run:

* :class:`SerialExecutor` — in the calling process (the reference);
* :class:`PoolExecutor` — a local :class:`~concurrent.futures.ProcessPoolExecutor`;
* :class:`SocketExecutor` — sharded over TCP to ``python -m repro.exec.worker``
  processes on this or other hosts.

The backend is a pure function of the
:class:`~repro.core.campaign.CampaignConfig` (:func:`resolve_executor_name`),
and all backends produce bit-identical record streams.  The engine is
orthogonal: under ``engine="batch"`` every backend executes its share of
a cell in numpy lockstep (:func:`~repro.exec.base.make_records`).
"""

from __future__ import annotations

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


def create_executor(app, config) -> Executor:
    """Instantiate (but do not start) the backend ``config`` resolves to."""
    return EXECUTORS[resolve_executor_name(config)](app, config)


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
