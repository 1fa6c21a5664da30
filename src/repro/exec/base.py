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
from typing import List, Optional, Sequence, Tuple

from ..core.app import ErrorTolerantApp
from ..core.campaign import injection_seed
from ..core.outcomes import RunRecord
from ..sim import InjectionPlan, ProtectionMode, get_model, plan_injections

#: One campaign run: ``(run_index, errors, mode)``.
RunTask = Tuple[int, int, ProtectionMode]


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


def _execute(app: ErrorTolerantApp, config, workload_seed: int,
             plan: Optional[InjectionPlan]):
    """The finished run of ``plan``.

    A run without targets is the golden run: its watchdog budget covers
    the golden length, so its result is the memoized golden result and
    is not simulated again.  Only records read it, so no caller gets the
    shared object.
    """
    if plan is None or not plan.targets:
        return app.golden(workload_seed).result
    return app.run_once(injection=plan, seed=workload_seed, engine=config.engine)


def make_record(app: ErrorTolerantApp, config, run_index: int, errors: int,
                mode: ProtectionMode) -> RunRecord:
    """Execute one campaign run and build its record."""
    workload_seed, plan = _derive_plan(app, config, run_index, errors, mode)
    run = _execute(app, config, workload_seed, plan)
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
    """Execute a sequence of campaign run tasks in order (see
    :func:`make_record`)."""
    return [make_record(app, config, *task) for task in tasks]


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
