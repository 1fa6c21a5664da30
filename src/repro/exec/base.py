"""Executor protocol: how a campaign's runs get executed.

A sweep is a list of *run tasks* — ``(app_name, run_index, errors,
mode)`` tuples — and every injection plan is a pure function of
``(config.base_seed, run_index, errors, config.model)``.  That purity is
the whole contract: an :class:`Executor` may run the tasks in-process, fan them out
over a local process pool, or shard them over TCP to workers on other
hosts, and the resulting :class:`~repro.core.outcomes.RunRecord` stream
must be **bit-identical** in every case (asserted in
``tests/test_executors.py``).

One executor serves a whole sweep: it is built with every application
the sweep has work for, and one ``run`` call takes every pending task,
across applications and cells.  Executors are context managers::

    with create_executor([app], config) as executor:
        for record in executor.run([("adpcm", 0, 4, ProtectionMode.PROTECTED),
                                    ...]):
            ...

``run`` yields records in task order, however the backend scheduled
them, so callers persist each one as soon as its turn comes.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import (Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.app import ErrorTolerantApp
from ..core.campaign import injection_seed
from ..core.outcomes import RunRecord
from ..sim import (InjectionPlan, ProtectionMode, executing_engine, get_model,
                   plan_injections)

#: One campaign run: ``(app_name, run_index, errors, mode)``.
RunTask = Tuple[str, int, int, ProtectionMode]


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
    if forks(config.engine, config.model):
        app.checkpoint_store(workload_seed)  # also memoizes the golden run
    model = get_model(config.model)
    population = model.population(app.golden(workload_seed), mode)
    plan = plan_injections(errors, population, mode,
                           seed=injection_seed(config.base_seed, run_index,
                                               errors),
                           model=model.name)
    return workload_seed, plan


@lru_cache(maxsize=None)
def forks(engine: str, model: str) -> bool:
    """True when injected runs under ``engine`` and ``model`` execute on
    the fork engine."""
    # Every injected run of a campaign shares the engine and model, so
    # one plan with a target stands for all of them.
    probe = InjectionPlan(ProtectionMode.PROTECTED, [0], model=model)
    return executing_engine(engine, probe) == "fork"


def _execute(app: ErrorTolerantApp, config, workload_seed: int,
             plan: Optional[InjectionPlan]):
    """The finished run of ``plan``.

    A run without targets is the golden run: its watchdog budget covers
    the golden length, so its result is the memoized golden result and
    is not simulated again.  Only records read it, so no caller gets the
    shared object, and an injected run may end on a hang proof
    (``record_only``).
    """
    if plan is None or not plan.targets:
        return app.golden(workload_seed).result
    return app.run_once(injection=plan, seed=workload_seed,
                        engine=config.engine, record_only=True)


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


def make_records(apps: Mapping[str, ErrorTolerantApp], config,
                 tasks: Sequence[RunTask]) -> List[RunRecord]:
    """Execute run tasks in order, each on the application it names in
    ``apps`` (see :func:`make_record`)."""
    return [make_record(apps[app_name], config, run_index, errors, mode)
            for app_name, run_index, errors, mode in tasks]


#: Chunks per worker: enough to balance a hang-heavy chunk against the
#: others.
CHUNKS_PER_WORKER = 16
#: Most runs in one chunk.  In a process pool each work item costs about
#: 2 kB in the parent and 0.4 ms of transfer (94,000 no-op pool items on a
#: 2-CPU host), which big sweeps feel; a chunk's records return together.
#: Over two loopback socket workers on the same 2-CPU host this rule is
#: no slower than one chunk per four runs per worker: a default-grid
#: 4-run sweep took 4.3 s against 5.1 s (medians of ten pairs), an
#: adaptive sweep of 1-run chunks 33.5 s against 34.0 s (six pairs).
MAX_CHUNK = 16


def chunk_size(tasks: int, workers: int) -> int:
    """Runs per chunk when ``tasks`` runs are shared by ``workers``: at
    least :data:`CHUNKS_PER_WORKER` chunks per worker, at most
    :data:`MAX_CHUNK` runs per chunk."""
    return max(1, min(MAX_CHUNK, tasks // (workers * CHUNKS_PER_WORKER)))


class Executor(abc.ABC):
    """Pluggable backend that executes campaign run tasks.

    Constructed with the applications a sweep has work for and the
    campaign config; ``start`` warms the applications' golden runs and
    acquires backend resources (worker processes, TCP connections),
    ``run`` executes a batch of tasks, and ``close`` releases the
    resources.  One executor serves a whole sweep, one ``run`` call per
    round: a fixed sweep is one round of every pending task, an adaptive
    one hands it each unconverged cell's next chunk per round.
    """

    #: Registry name of the backend (``"serial"``, ``"pool"``, ``"socket"``).
    name: str = "abstract"

    def __init__(self, apps: Iterable[ErrorTolerantApp], config) -> None:
        #: The applications by name, in the order given.
        self.apps = {app.name: app for app in apps}
        self.config = config

    def start(self) -> None:
        """Warm the applications, then acquire backend resources."""
        self._warm(checkpoints=forks(self.config.engine, self.config.model))

    def _warm(self, checkpoints: bool = False) -> None:
        """Simulate the golden run of every workload seed of the campaign.

        ``workload_seed_for`` cycles ``run_index % workloads``, so the
        distinct seeds are ``range(min(runs, workloads))``; every injection
        plan reads its exposed-dynamic counts from these runs.
        ``checkpoints`` also builds their fork-engine checkpoint stores.
        """
        config = self.config
        for app in self.apps.values():
            app.warm(seeds=range(min(config.runs, config.workloads)),
                     checkpoints=checkpoints)

    @abc.abstractmethod
    def run(self, tasks: Sequence[RunTask]) -> Iterator[RunRecord]:
        """Execute ``tasks``; yield their records in task order."""

    def close(self) -> None:
        """Release backend resources."""

    def __enter__(self) -> "Executor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
