"""The library API: submit campaigns, read progress, render artefacts.

One facade in front of the sweep machinery.  The CLI subcommands, the
campaign daemon's HTTP handlers and library users all call these five
functions — :class:`~repro.experiments.sweep.SweepOrchestrator` is an
implementation detail behind :func:`submit`/:func:`status`, and the
tables/figures builders sit behind :func:`tables`/:func:`figures`::

    from repro.api import CampaignSpec, submit, tables

    spec = CampaignSpec(suite="small", runs_per_cell=4, apps=("susan",))
    job = submit(spec, store="runs/")            # run locally, or
    job = submit(spec, url="http://host:8340")   # hand to a daemon
    print(tables("runs/", [2])[0].to_text())

Every entry point describes *which campaign* with a
:class:`~repro.service.spec.CampaignSpec` (content + coverage) and *how
to execute it* with keyword execution options (``executor``,
``workers``, ``parallel``, ``engine``, ...) — the split that makes the
store a content-addressed cache: execution options can never change
record bytes.

:func:`submit` always returns the same job-status payload shape the
daemon's HTTP API serves, whether the campaign ran locally or remotely,
so callers are insensitive to where the work happened.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from .core import ShardStore
from .service.spec import CampaignSpec

__all__ = [
    "CampaignSpec",
    "analyze",
    "build_orchestrator",
    "figures",
    "results",
    "status",
    "submit",
    "tables",
]

#: Type accepted wherever a store is expected: a path or a ready
#: :class:`~repro.core.store.ShardStore`.
StoreLike = Union[str, "ShardStore"]


def _as_store(store: StoreLike, spec: Optional[CampaignSpec] = None,
              model: Optional[str] = None) -> ShardStore:
    """Coerce a path into a :class:`ShardStore` bound to the right model.

    The model comes from the spec when one is in play, else from the
    store's own ``meta.json`` (the artefact-reading case), else the
    default — mirroring the CLI's historical resolution order.
    """
    if isinstance(store, ShardStore):
        return store
    opened = ShardStore(store)
    if model is None:
        model = (spec.model if spec is not None
                 else (opened.read_meta() or {}).get("model", "control-bit"))
    opened.model = model
    return opened


def _spec_for_store(store: ShardStore) -> CampaignSpec:
    """The content parameters a store's ``meta.json`` pins, as a spec."""
    return CampaignSpec.from_store_meta(store.read_meta() or {})


def build_orchestrator(spec: CampaignSpec, store: StoreLike, *,
                       progress: Optional[Callable[[str], None]] = None,
                       on_executor: Optional[Callable] = None,
                       chunk_size: int = 16, **execution):
    """The :class:`SweepOrchestrator` equivalent to ``(spec, execution)``.

    The one place a spec becomes an orchestrator — ``submit`` (local
    mode), the daemon's scheduler and the CLI all come through here, so
    spec semantics cannot drift between surfaces.  ``execution`` takes
    :class:`~repro.core.campaign.CampaignConfig` knobs (``workers``,
    ``parallel``, ``engine``, ``worker_secret``, ...).
    """
    from .experiments.sweep import SweepOrchestrator

    bound = _as_store(store, spec)
    return SweepOrchestrator(
        bound, spec.experiment_config(),
        campaign=spec.campaign_config(**execution),
        apps=spec.apps, modes=spec.grid_modes(), errors_axis=spec.errors,
        include_table2=spec.include_table2, chunk_size=chunk_size,
        stopping=spec.stopping, progress=progress, on_executor=on_executor,
    )


def _job_payload(spec: CampaignSpec, report, executors_started: int,
                 submitted: Optional[float] = None,
                 finished: Optional[float] = None) -> Dict:
    """A local run's report in the daemon's job-status payload shape.

    ``lane`` is ``None`` and ``restored`` ``False`` by construction: a
    local run has no scheduler lane and no journal to be restored from —
    the keys exist so the payload shape stays identical to the daemon's.
    """
    complete = sum(1 for status in report.statuses if status.complete)
    return {
        "job": spec.cache_key,
        "store": spec.store_key,
        "state": "complete" if complete == report.cells_total else "failed",
        "error": None if complete == report.cells_total else (
            f"{report.cells_total - complete} cell(s) incomplete "
            f"after the sweep"),
        "spec": spec.to_json(),
        "report": {
            "cells_total": report.cells_total,
            "cells_complete": complete,
            "runs_executed": report.runs_executed,
            "runs_reused": report.runs_reused,
            "runs_discarded": report.runs_discarded,
            "fleet": report.fleet,
        },
        "executors_started": executors_started,
        "lane": None,
        "restored": False,
        "submitted": submitted,
        "finished": finished,
        "progress": [],
    }


def submit(spec: CampaignSpec, store: Optional[StoreLike] = None, *,
           url: Optional[str] = None, wait: bool = True,
           timeout: Optional[float] = None,
           progress: Optional[Callable[[str], None]] = None,
           chunk_size: int = 16, **execution) -> Dict:
    """Run (or hand off) a campaign; returns a job-status payload.

    Exactly one of ``store`` (run locally into that shard store) or
    ``url`` (submit to a campaign daemon) must be given.  Remote submits
    return the daemon's response — by default after :meth:`waiting
    <repro.service.client.ServiceClient.wait>` for the job to finish;
    ``wait=False`` returns the queued/coalesced state immediately.

    Either way the payload's ``report.runs_executed`` is the cache
    contract: resubmitting a spec whose cells are already in the store
    reports 0 executed runs (and 0 ``executors_started`` — no executor
    backend is even constructed for a fully cached campaign).
    """
    if (store is None) == (url is None):
        raise ValueError("submit() needs exactly one of store= (run "
                         "locally) or url= (submit to a campaign daemon)")
    if url is not None:
        if execution:
            raise ValueError(
                f"execution options {sorted(execution)} are the daemon's "
                f"to choose; a remote submit carries only the spec")
        from .service.client import ServiceClient

        client = ServiceClient(url)
        job = client.submit(spec)
        if wait and job["state"] not in ("complete", "failed"):
            job = client.wait(job["job"], timeout=timeout)
        return job
    import time

    executors = {"count": 0}
    user_hook = execution.pop("on_executor", None)

    def _count_executors(executor) -> None:
        executors["count"] += 1
        if user_hook is not None:
            user_hook(executor)

    submitted = time.time()
    orchestrator = build_orchestrator(spec, store, progress=progress,
                                      on_executor=_count_executors,
                                      chunk_size=chunk_size, **execution)
    report = orchestrator.run()
    return _job_payload(spec, report, executors["count"],
                        submitted=submitted, finished=time.time())


def status(store: Optional[StoreLike] = None,
           spec: Optional[CampaignSpec] = None, *,
           url: Optional[str] = None, job: Optional[str] = None):
    """Per-cell progress of a campaign — local store or remote daemon.

    Exactly one of ``store`` or ``url`` must be given.  The local form
    measures progress against the shard store: without a spec, for the
    full default grid under the store's own pinned parameters (the
    ``python -m repro status`` behaviour); returns the orchestrator's
    :class:`~repro.experiments.sweep.SweepStatus` list.

    The remote form queries a campaign daemon: with ``job`` (a cache
    key) or a ``spec`` to derive it from, returns that job's status
    payload (the daemon's ``Job.to_json`` shape, including scheduler
    ``lane`` and journal ``restored`` state); with neither, returns the
    daemon's full job list.
    """
    if (store is None) == (url is None):
        raise ValueError("status() needs exactly one of store= (read a "
                         "local shard store) or url= (query a daemon)")
    if url is not None:
        from .service.client import ServiceClient

        client = ServiceClient(url)
        if job is None and spec is not None:
            job = spec.cache_key
        if job is None:
            return client.jobs()
        return client.status(job)
    bound = _as_store(store, spec)
    if spec is None:
        spec = _spec_for_store(bound)
    return build_orchestrator(spec, bound).status()


def results(store: StoreLike, app: str, mode, errors: int) -> List:
    """One cell's persisted records (empty list when never swept).

    ``mode`` accepts a :class:`~repro.sim.ProtectionMode` or its string
    value.  Pure cache read — never triggers execution.
    """
    from .sim import ProtectionMode

    bound = _as_store(store)
    return bound.load_records(app, ProtectionMode(mode), errors)


def tables(store: Optional[StoreLike], numbers: Sequence[int] = (1, 2, 3),
           *, apps: Optional[Sequence[str]] = None,
           models: Optional[Sequence[str]] = None,
           model_errors: int = 4, config=None) -> List:
    """Render the paper's tables; returns :class:`TableData` objects.

    Store-backed tables (2, 5) read records from ``store`` under its
    pinned parameters; analysis tables (1, 3) and the cross-model table
    (4) simulate live.  Raises
    :class:`~repro.core.store.MissingCellError` with resume guidance when
    the store lacks a required cell.
    """
    from .experiments import tables as builders

    bound = _as_store(store) if store is not None else None
    if config is None:
        config = (_spec_for_store(bound).experiment_config()
                  if bound is not None else None)
    rendered = []
    for number in numbers:
        if number == 1:
            rendered.append(builders.table1_applications(config))
        elif number == 2:
            rendered.append(builders.table2_catastrophic_failures(
                config, apps=apps, store=bound))
        elif number == 3:
            rendered.append(builders.table3_low_reliability_instructions(
                config, apps=apps))
        elif number == 4:
            rendered.append(builders.table4_fault_models(
                config, apps=apps, models=models, errors=model_errors))
        elif number == 5:
            rendered.append(builders.table5_static_vs_dynamic(
                config, apps=apps, store=bound))
        else:
            raise ValueError(f"unknown table {number}; expected 1-5")
    return rendered


def analyze(app: str, *, suite: str = "small", model: str = "control-bit",
            protect_addresses: bool = False, track_memory: bool = False,
            respect_eligibility: bool = True,
            protect_stack_registers: bool = True):
    """Static susceptibility report for one application.

    Runs the interprocedural def-use/lifetime analysis
    (:mod:`repro.analysis`) over ``app``'s program and returns a
    :class:`~repro.analysis.StaticSusceptibilityReport` — per-site fate
    classification, ACE-style lifetime windows and loop-weighted
    susceptibility scores.  Purely static: no workload is executed.  The
    keyword options mirror the control-tagging ablation axes.
    """
    from .analysis import build_report

    return build_report(
        app, suite=suite, model=model,
        protect_addresses=protect_addresses, track_memory=track_memory,
        respect_eligibility=respect_eligibility,
        protect_stack_registers=protect_stack_registers)


def figures(store: StoreLike, names: Optional[Sequence[str]] = None, *,
            errors: Optional[Sequence[int]] = None,
            config=None) -> List:
    """Render the paper's figures; returns :class:`FigureData` objects.

    Reads records from ``store`` under its pinned parameters; raises
    :class:`~repro.core.store.MissingCellError` when a required cell has
    not been swept.
    """
    from .experiments import ALL_FIGURES

    bound = _as_store(store)
    if config is None:
        config = _spec_for_store(bound).experiment_config()
    rendered = []
    for name in (names if names is not None else sorted(ALL_FIGURES)):
        builder = ALL_FIGURES.get(name)
        if builder is None:
            raise ValueError(f"unknown figure {name!r}; expected one of "
                             f"{sorted(ALL_FIGURES)}")
        rendered.append(builder(config, errors_axis=errors, store=bound))
    return rendered
