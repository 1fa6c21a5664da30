"""Fault-injection campaign runner.

A *campaign* runs one application many times with a fixed number of
injected soft errors and a fixed protection mode, classifies every run
(completed / crash / infinite run) and scores the completed runs with the
application's fidelity measure.  A *sweep* repeats the campaign over a list
of error counts, producing the series the paper plots in Figures 1-6.

Campaign throughput matters: every data point in the paper's figures is a
full program execution, so the runner is built around two optimisations:

* **Golden-run memoization** — the error-free run of each workload seed is
  simulated once per runner (:meth:`CampaignRunner.golden_for`) and its
  exposed-dynamic-instruction count is reused by every injection plan in
  the campaign, instead of re-deriving it inside the run loop.
* **Pluggable executors** — where a cell's runs execute is delegated to
  the :mod:`repro.exec` backends, chosen by one rule: TCP workers on any
  hosts when ``workers=("host:port", ...)`` is set, a local process pool
  when ``parallel > 1``, and the calling process otherwise.  Every run's
  injection plan is derived purely from ``(base_seed, run_index,
  errors)`` (:func:`injection_seed`), so the records are
  **bit-identical** across backends under the same seeds.  Pool workers
  receive the application pre-compiled and pre-warmed via the pool
  initializer; socket workers rebuild it locally from the app registry
  (the v2 wire protocol ships only the app's name and constructor
  parameters — nothing executable) and cache it across sessions, so
  reconnects never repeat the setup work either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..sim import (
    CHECKPOINT_ENGINES,
    InjectionPlan,
    ProtectionMode,
    executing_engine,
    get_model,
)
from .app import ErrorTolerantApp, GoldenRun
from .outcomes import CampaignResult, RunRecord, SweepResult

ProgressCallback = Callable[[str], None]

#: Engines accepted by ``CampaignConfig.engine`` (see ``Machine.run``).
ENGINE_NAMES = ("fork", "batch", "decoded", "reference")


def injection_seed(base_seed: int, run_index: int, errors: int) -> int:
    """Seed of the injection plan of run ``run_index`` in an ``errors`` cell.

    Every executor backend derives its plans from this one formula, and
    attribution re-derives the plans of stored records from it.
    """
    return base_seed + 7919 * run_index + 104729 * errors


@dataclass
class CampaignConfig:
    """Parameters of a fault-injection campaign."""

    runs: int = 10
    base_seed: int = 2006
    #: Number of distinct workloads cycled through the runs.  The paper uses
    #: one input per application; more workloads reduce input-specific bias.
    workloads: int = 1
    #: Number of worker processes a campaign cell fans out over.  ``1`` runs
    #: in-process; ``N > 1`` uses a local process pool (unless ``workers``
    #: is set) and produces records bit-identical to the in-process runner
    #: under the same seeds.
    parallel: int = 1
    #: Execution engine for injected runs: ``"fork"`` (default) resumes each
    #: run from the nearest golden checkpoint and splices the golden suffix
    #: on re-convergence; ``"batch"`` simulates a whole cell of injected
    #: runs in numpy lockstep along the golden trace (fastest; see
    #: :mod:`repro.sim.batch`); ``"decoded"`` executes every run from
    #: scratch; ``"reference"`` is the preserved seed interpreter.  Records
    #: are bit-identical across engines.
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

    def seed_for(self, run_index: int) -> int:
        return injection_seed(self.base_seed, run_index, 0)

    def workload_seed_for(self, run_index: int) -> int:
        return run_index % self.workloads


class CampaignRunner:
    """Runs fault-injection campaigns for one application."""

    def __init__(self, app: ErrorTolerantApp, config: Optional[CampaignConfig] = None,
                 progress: Optional[ProgressCallback] = None) -> None:
        self.app = app
        self.config = config or CampaignConfig()
        self._progress = progress

    def _report(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    # ------------------------------------------------------------------
    # Golden-run memoization.
    # ------------------------------------------------------------------
    def golden_for(self, workload_seed: int) -> GoldenRun:
        """Golden run for one workload seed, simulated at most once.

        Delegates to the application's per-seed memoization — the cached
        run's exposed-dynamic-instruction counts feed every injection plan
        of the campaign (``plan_injections`` draws targets uniformly over
        the exposed stream observed in the golden run).
        """
        return self.app.golden(workload_seed)

    def warm_goldens(self) -> None:
        """Simulate the golden run of every distinct workload seed once.

        ``workload_seed_for`` cycles ``run_index % workloads``, so the
        distinct seeds are exactly ``range(min(runs, workloads))``.  When
        the cell runs in-process and its injected runs execute on a
        checkpoint engine, the golden checkpoint stores are built here
        too, so the run loop only ever pays for divergence.  (Workers of a
        pool or socket backend rebuild their stores locally on first use —
        the snapshots are deliberately stripped from the pickled payload.)
        """
        # Every injected run of the campaign shares the engine and model,
        # so one plan with a target stands for all of them.
        probe = InjectionPlan(ProtectionMode.PROTECTED, [0], model=self.config.model)
        build_checkpoints = (
            self.executor_name() == "serial"
            and executing_engine(self.config.engine, probe) in CHECKPOINT_ENGINES)
        self.app.warm(seeds=range(min(self.config.runs, self.config.workloads)),
                      checkpoints=build_checkpoints)

    # ------------------------------------------------------------------
    # Executor resolution (see repro.exec).
    # ------------------------------------------------------------------
    def executor_name(self) -> str:
        """Backend this runner's cells execute on."""
        from ..exec import resolve_executor_name  # deferred: avoids import cycle

        return resolve_executor_name(self.config)

    def make_executor(self):
        """Instantiate (but do not start) the resolved executor backend."""
        from ..exec import create_executor  # deferred: avoids import cycle

        return create_executor(self.app, self.config)

    # ------------------------------------------------------------------
    # Single campaign cell.
    # ------------------------------------------------------------------
    def run_records(self, errors: int, mode: ProtectionMode,
                    run_indices: Optional[Sequence[int]] = None,
                    _executor=None) -> List[RunRecord]:
        """Execute (a subset of) a cell's runs and return their records.

        ``run_indices`` defaults to the whole cell, ``range(config.runs)``;
        the sweep orchestrator passes just the indices missing from its
        shard store when resuming.  ``_executor`` lets multi-cell drivers
        reuse one warm backend across cells instead of re-starting it.
        """
        if run_indices is None:
            run_indices = range(self.config.runs)
        tasks = [(run_index, errors, mode) for run_index in run_indices]
        self.warm_goldens()
        if _executor is not None:
            return _executor.run(tasks)
        with self.make_executor() as executor:
            return executor.run(tasks)

    def run_campaign(self, errors: int, mode: ProtectionMode,
                     _executor=None) -> CampaignResult:
        """Run ``config.runs`` injected executions with ``errors`` bit flips."""
        result = CampaignResult(app_name=self.app.name, mode=mode,
                                errors_requested=errors)
        result.records.extend(self.run_records(errors, mode, _executor=_executor))
        self._report(
            f"{self.app.name}: {errors} errors, {mode.value}: "
            f"{result.failure_percent:.0f}% failures"
        )
        return result

    # ------------------------------------------------------------------
    # Error-count sweep (one figure series).
    # ------------------------------------------------------------------
    def run_sweep(self, errors_axis: Optional[Sequence[int]] = None,
                  mode: ProtectionMode = ProtectionMode.PROTECTED) -> SweepResult:
        axis = list(errors_axis if errors_axis is not None else self.app.default_error_sweep)
        sweep = SweepResult(app_name=self.app.name, mode=mode)
        # One executor serves every cell of the sweep: pool/socket backends
        # ship the warm app once per worker, not once per error count.
        self.warm_goldens()
        with self.make_executor() as executor:
            for errors in axis:
                sweep.cells.append(self.run_campaign(errors, mode,
                                                     _executor=executor))
        return sweep


def run_quick_campaign(app: ErrorTolerantApp, errors: int, runs: int = 5,
                       mode: ProtectionMode = ProtectionMode.PROTECTED,
                       base_seed: int = 2006, parallel: int = 1) -> CampaignResult:
    """One-call helper used by examples and tests."""
    config = CampaignConfig(runs=runs, base_seed=base_seed, parallel=parallel)
    return CampaignRunner(app, config).run_campaign(errors, mode)
