"""Fault-injection campaign parameters.

A *campaign* runs one application many times with a fixed number of
injected soft errors and a fixed protection mode, classifies every run
(completed / crash / infinite run) and scores the completed runs with the
application's fidelity measure.  Every point of the paper's figures and
every Table 2 cell is one such campaign.

:class:`CampaignConfig` holds its parameters: what the records contain
(runs, seed, workloads, fault model) and how they are produced (engine,
executor).  Where a campaign's runs execute is delegated to the
:mod:`repro.exec` backends, chosen by one rule: TCP workers on any hosts
when ``workers=("host:port", ...)`` is set, a local process pool when
``parallel > 1`` (the default on a host with more than one usable CPU,
see :func:`usable_cpus`), and the calling process otherwise.  Every run's
injection plan is derived purely from ``(base_seed, run_index, errors)``
(:func:`injection_seed`), so the records are **bit-identical** across
backends under the same seeds.

Campaigns are submitted through :func:`repro.api.submit`, which hands
one executor every pending run of the sweep and persists the records.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..sim import get_model

#: Engines campaigns run on (see ``Machine.run``); the command line offers
#: exactly these.
ENGINES = ("fork", "decoded", "reference")
#: Names ``CampaignConfig.engine`` accepts: the engines, plus ``"batch"``,
#: which it maps to ``"fork"``.
ENGINE_NAMES = ENGINES + ("batch",)


def injection_seed(base_seed: int, run_index: int, errors: int) -> int:
    """Seed of the injection plan of run ``run_index`` in an ``errors`` cell.

    Every executor backend derives its plans from this one formula, and
    attribution re-derives the plans of stored records from it.
    """
    return base_seed + 7919 * run_index + 104729 * errors


def usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask counts, not the machine: ``taskset`` and container
    CPU sets shrink it.  Falls back to ``os.cpu_count()`` where the
    platform has no ``sched_getaffinity``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class CampaignConfig:
    """Parameters of a fault-injection campaign."""

    runs: int = 10
    base_seed: int = 2006
    #: Number of distinct workloads cycled through the runs.  The paper uses
    #: one input per application; more workloads reduce input-specific bias.
    workloads: int = 1
    #: Number of worker processes a campaign's runs fan out over; defaults
    #: to the usable CPU count.  ``1`` runs in-process; ``N > 1`` uses a
    #: local process pool (unless ``workers`` is set) and produces records
    #: bit-identical to the in-process runner under the same seeds.
    parallel: int = field(default_factory=usable_cpus)
    #: Execution engine for injected runs: ``"fork"`` (default, and the
    #: fastest) resumes each run from the nearest golden checkpoint and
    #: splices the golden suffix on re-convergence; ``"decoded"`` executes
    #: every run from scratch; ``"reference"`` is the preserved seed
    #: interpreter.  Records are bit-identical across engines.
    engine: str = "fork"
    #: ``host:port`` addresses of running ``python -m repro.exec.worker``
    #: processes; a non-empty tuple selects the socket executor.
    workers: Tuple[str, ...] = ()
    #: Shared secret authenticating the socket handshake (HMAC-SHA256,
    #: mutual).  Must match the workers' ``--secret``; ``None`` skips
    #: authentication (loopback fleets).  Never sent over the wire.
    worker_secret: Optional[str] = None
    #: Hard wall-clock deadline (seconds) for one remote chunk.  ``None``
    #: derives a generous deadline from the chunk's watchdog budgets; set
    #: it explicitly to bound tail latency on known-fast campaigns.
    chunk_timeout: Optional[float] = None
    #: When the socket fleet shrinks to zero mid-sweep: ``True`` (default)
    #: degrades to local in-process execution with one loud warning —
    #: records stay bit-identical; ``False`` aborts the sweep with
    #: :class:`~repro.exec.FleetLostError` instead (resumable later).
    fallback: bool = True
    #: Fault model every injection plan of the campaign uses
    #: (:mod:`repro.sim.models`; see ``docs/FAULT_MODELS.md``).  The default
    #: ``"control-bit"`` is the paper's single result-bit flip and is
    #: bit-identical to the pre-model behaviour.  Models that cannot resume
    #: from fork checkpoints (``"memory-bit"``) transparently fall back to
    #: full-run execution under ``engine="fork"``.
    model: str = "control-bit"

    def __post_init__(self) -> None:
        # Fail at construction with a clear message instead of deep inside
        # the run loop (or inside a remote worker) with an obscure one.
        if self.runs < 1:
            raise ValueError(f"CampaignConfig.runs must be >= 1, got {self.runs}")
        if self.parallel < 1:
            raise ValueError(
                f"CampaignConfig.parallel must be >= 1, got {self.parallel}"
            )
        if self.workloads < 1:
            raise ValueError(
                f"CampaignConfig.workloads must be >= 1, got {self.workloads}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINE_NAMES}"
            )
        if self.engine == "batch":
            # The lockstep batch engine is retired: fork was faster on every
            # workload and writes the same records.  Existing callers (the
            # end-to-end benchmark among them) still ask for it by name.
            self.engine = "fork"
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(
                f"CampaignConfig.chunk_timeout must be > 0 (or None for "
                f"watchdog-derived deadlines), got {self.chunk_timeout}"
            )
        get_model(self.model)  # raises ValueError on unknown model names
        if self.engine == "reference" and self.model != "control-bit":
            raise ValueError(
                f"engine='reference' (the preserved seed interpreter) only "
                f"implements the 'control-bit' fault model, not {self.model!r}"
            )
        self.workers = tuple(self.workers)

    def workload_seed_for(self, run_index: int) -> int:
        return run_index % self.workloads
