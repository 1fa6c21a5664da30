"""Executor protocol: how a campaign cell's runs get executed.

A campaign cell is a list of *run tasks* — ``(run_index, errors, mode)``
tuples — and every injection plan is a pure function of
``(config.base_seed, run_index, errors, config.model)``.  That purity is
the whole contract: an :class:`Executor` may run the tasks in-process, fan them out
over a local process pool, or shard them over TCP to workers on other
hosts, and the resulting :class:`~repro.core.outcomes.RunRecord` stream
must be **bit-identical** in every case (asserted in
``tests/test_executors.py``).

Executors are context managers::

    with create_executor(app, config) as executor:
        records = executor.run([(0, 4, ProtectionMode.PROTECTED), ...])

``run`` always returns records in task order, however the backend
scheduled them.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.app import ErrorTolerantApp
from ..core.campaign import injection_seed
from ..core.outcomes import RunRecord
from ..sim import InjectionPlan, ProtectionMode, executing_engine, get_model, plan_injections

#: One campaign run: ``(run_index, errors, mode)``.
RunTask = Tuple[int, int, ProtectionMode]

#: Maximum number of runs one lockstep walk carries under
#: ``engine="batch"``.  Larger batches amortize the golden-trace walk over
#: more lanes; memory grows with the batch times the diverged memory
#: cells.  Sweeps hand :func:`make_records` at most ``chunk_size`` tasks
#: at a time, which caps the lanes per walk well below this.
BATCH_SIZE = 256


def _derive_plan(app: ErrorTolerantApp, config, run_index: int, errors: int,
                 mode: ProtectionMode) -> Tuple[int, Optional[InjectionPlan]]:
    """``(workload_seed, plan)`` of one campaign run.

    The plan is ``None`` for error-free and unprotectable runs.  Every
    backend (and every remote worker) derives plans here, from identical
    inputs — the basis of the cross-backend determinism guarantee.
    """
    workload_seed = config.workload_seed_for(run_index)
    if errors <= 0 or mode is ProtectionMode.NONE:
        return workload_seed, None
    model = get_model(config.model)
    population = model.population(app.golden(workload_seed), mode)
    plan = plan_injections(errors, population, mode,
                           seed=injection_seed(config.base_seed, run_index,
                                               errors),
                           model=model.name)
    return workload_seed, plan


def make_record(app: ErrorTolerantApp, config, run_index: int, errors: int,
                mode: ProtectionMode) -> RunRecord:
    """Execute one campaign run and build its record."""
    workload_seed, plan = _derive_plan(app, config, run_index, errors, mode)
    run = app.run_once(injection=plan, seed=workload_seed, engine=config.engine)
    return _build_record(app, config, run_index, errors, mode, plan, run,
                         workload_seed)


def _build_record(app: ErrorTolerantApp, config, run_index: int, errors: int,
                  mode: ProtectionMode, plan, run,
                  workload_seed: int) -> RunRecord:
    """Score one finished run and assemble its :class:`RunRecord`."""
    fidelity = app.score_run(run, seed=workload_seed)
    return RunRecord(
        run_index=run_index,
        seed=workload_seed,
        mode=mode,
        errors_requested=errors,
        errors_injected=plan.injected_errors if plan is not None else 0,
        outcome=run.outcome,
        executed=run.executed,
        fidelity=fidelity,
        fault_kind=run.fault_kind,
        model=get_model(config.model).name,
    )


def make_records(app: ErrorTolerantApp, config,
                 tasks: Sequence[RunTask]) -> List[RunRecord]:
    """Execute a sequence of campaign run tasks, batching when possible.

    Runs whose :func:`~repro.sim.machine.executing_engine` is ``"batch"``
    are grouped by ``(workload_seed, mode)``, chunked to
    :data:`BATCH_SIZE` and fed to the numpy lockstep engine
    (:mod:`repro.sim.batch`); every other run executes on its own.  Plans
    come from the same derivation as :func:`make_record`, so the record
    stream is bit-identical to the scalar engines, in task order.
    """
    tasks = list(tasks)
    records: List[Optional[RunRecord]] = []
    groups: Dict[Tuple[int, ProtectionMode], List[Tuple[int, InjectionPlan]]] = {}
    for pos, (run_index, errors, mode) in enumerate(tasks):
        workload_seed, plan = _derive_plan(app, config, run_index, errors, mode)
        if plan is not None and executing_engine(config.engine, plan) == "batch":
            groups.setdefault((workload_seed, mode), []).append((pos, plan))
            records.append(None)
            continue
        run = app.run_once(injection=plan, seed=workload_seed,
                           engine=config.engine)
        records.append(_build_record(app, config, run_index, errors, mode,
                                     plan, run, workload_seed))
    for (workload_seed, mode), members in groups.items():
        for start in range(0, len(members), BATCH_SIZE):
            chunk = members[start:start + BATCH_SIZE]
            runs = app.run_batched([plan for _, plan in chunk],
                                   seed=workload_seed)
            for (pos, plan), run in zip(chunk, runs):
                run_index, errors, _ = tasks[pos]
                records[pos] = _build_record(app, config, run_index, errors,
                                             mode, plan, run, workload_seed)
    return records  # type: ignore[return-value]


class Executor(abc.ABC):
    """Pluggable backend that executes campaign run tasks.

    Constructed with the application and the campaign config; ``start``
    acquires backend resources (worker processes, TCP connections),
    ``run`` executes one batch of tasks, and ``close`` releases the
    resources.  One executor instance may serve many ``run`` calls — a
    sweep reuses a single warm executor across all of its cells.
    """

    #: Registry name of the backend (``"serial"``, ``"pool"``, ``"socket"``).
    name: str = "abstract"

    def __init__(self, app: ErrorTolerantApp, config) -> None:
        self.app = app
        self.config = config

    def start(self) -> None:
        """Acquire backend resources.  Idempotent for the serial backend."""

    @abc.abstractmethod
    def run(self, tasks: Sequence[RunTask]) -> List[RunRecord]:
        """Execute ``tasks`` and return their records in task order."""

    def close(self) -> None:
        """Release backend resources."""

    def __enter__(self) -> "Executor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
