"""Resumable paper-sweep orchestrator.

Drives the full experiment grid behind the paper's tables and figures —
every application x both protection modes x that application's
error-count series (plus the Table 2 operating points) — and persists
every :class:`~repro.core.outcomes.RunRecord` to a
:class:`~repro.core.store.ShardStore` keyed by ``(app, mode, errors,
run_index)``.

A :class:`~repro.service.spec.CampaignSpec` describes the campaign
whole: its content parameters (suite, seed, workloads, fault model, run
count or stopping rule) are pinned in ``meta.json``, and its coverage
parameters select the grid cells (:meth:`CampaignSpec.cells`).

Resumability is the point: the orchestrator plans each cell as the set of
run indices *missing* from the store, executes them in chunks through
whatever executor backend the campaign config selects (in-process, local
process pool, or TCP workers on other hosts), and appends each chunk to
disk as it completes.  Kill it anywhere — even mid-cell, even mid-write —
and a later invocation (with any backend) recomputes only the runs whose
records never landed, producing a store byte-identical to an
uninterrupted serial sweep.

Two planning modes share that machinery:

* **Fixed** (the default): every cell gets exactly ``runs_per_cell``
  runs, pinned in ``meta.json``.
* **Adaptive** (a spec with ``stopping=StoppingRule(...)``, CLI ``sweep
  --adaptive``): each cell keeps appending runs until the
  failure-rate and acceptable-rate Wilson intervals are narrower than
  the rule's target half-width (with a floor and a cap), so the sweep
  spends runs where the estimates are still noisy and stops early where
  they have converged.  The canonical run count of a cell is the
  *smallest* ``n`` in ``[floor, cap]`` whose first ``n`` records satisfy
  the rule — a pure function of the record stream, which itself is a
  pure function of ``(base_seed, run_index, errors, model)`` — so
  adaptive stores stay byte-deterministic across executor backends,
  interruptions and chunk sizes.  ``meta.json`` pins the rule
  ``(ci_width, run_floor, run_cap, confidence)`` instead of an exact
  ``runs_per_cell``.

``python -m repro sweep`` is the CLI front end; ``experiments.tables``
and ``experiments.figures`` regenerate the paper artefacts from the
resulting store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Type, Union)

from ..apps import SUITES
from ..core import CampaignConfig, ShardStore
from ..core.app import ErrorTolerantApp
from ..core.outcomes import RunRecord
from ..core.stats import wilson_interval
from ..exec import Executor, RunTask, create_executor
from ..service.spec import CampaignSpec
from ..sim import ProtectionMode
from .tables import TABLE2_ERROR_COUNTS


@dataclass(frozen=True)
class SweepCell:
    """One (application, protection mode, error count) grid cell."""

    app_name: str
    mode: ProtectionMode
    errors: int


@dataclass
class SweepStatus:
    """Progress of one cell: how many of its runs are persisted.

    Fixed sweeps fill ``done``/``total`` only.  Adaptive sweeps
    additionally report ``converged`` (the stopping rule's verdict on
    the persisted records; ``total`` is then the rule's run cap) and
    ``ci_half_width`` (the persisted failure-rate interval's ``±`` in
    percentage points, ``None`` while the cell has no records).
    """

    cell: SweepCell
    done: int
    total: int
    converged: Optional[bool] = None
    ci_half_width: Optional[float] = None

    @property
    def complete(self) -> bool:
        """True when the cell needs no further runs."""
        if self.converged is not None:
            return self.converged
        return self.done >= self.total


@dataclass
class SweepReport:
    """Summary of one orchestrator invocation."""

    cells_total: int = 0
    cells_skipped: int = 0
    runs_executed: int = 0
    runs_reused: int = 0
    #: Adaptive mode only: runs computed past a cell's convergence point
    #: inside the final chunk and therefore never persisted (the price of
    #: chunked execution; bounded by ``chunk_size - 1`` per cell).
    runs_discarded: int = 0
    statuses: List[SweepStatus] = field(default_factory=list)
    #: Distributed sweeps only: per-worker transport counters
    #: (``chunks_ok``/``retries``/``reconnects``/``failures`` keyed by
    #: address under ``"workers"``) plus the ``"fallback_runs"`` count of
    #: runs executed locally after the fleet was lost.  Empty for
    #: in-process backends.  Also accumulated into the store's
    #: ``fleet.json`` so later ``status`` calls can surface it.
    fleet: Dict = field(default_factory=dict)

    def job_fields(self) -> Dict:
        """The ``state``, ``error`` and ``report`` of a job-status payload.

        The one derivation behind local submits and daemon jobs: a job is
        ``complete`` when every planned cell is.
        """
        complete = sum(1 for status in self.statuses if status.complete)
        incomplete = self.cells_total - complete
        return {
            "state": "failed" if incomplete else "complete",
            "error": (f"{incomplete} cell(s) incomplete after the sweep"
                      if incomplete else None),
            "report": {
                "cells_total": self.cells_total,
                "cells_complete": complete,
                "runs_executed": self.runs_executed,
                "runs_reused": self.runs_reused,
                "runs_discarded": self.runs_discarded,
                "fleet": self.fleet,
            },
        }


def grid_errors_axis(app: Union[ErrorTolerantApp, Type[ErrorTolerantApp]],
                     include_table2: bool = True) -> List[int]:
    """Error counts the grid sweeps for ``app`` (an application or its class).

    The union of the application's figure series and its Table 2 operating
    points, so one sweep feeds every artefact.
    """
    axis = set(app.default_error_sweep)
    if include_table2:
        axis.update(TABLE2_ERROR_COUNTS.get(app.name, ()))
    return sorted(axis)


class SweepOrchestrator:
    """Runs a campaign's grid against a shard store, resuming where it stopped.

    ``spec`` says which campaign; ``campaign`` says how to execute it and
    must be derived as ``spec.campaign_config(**execution)`` (the default
    is ``spec.campaign_config()``: in-process, fork engine).
    """

    def __init__(self, store: ShardStore, spec: CampaignSpec,
                 campaign: Optional[CampaignConfig] = None,
                 chunk_size: int = 16,
                 progress: Optional[Callable[[str], None]] = None,
                 on_executor: Optional[Callable] = None) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.store = store
        self.spec = spec
        content = spec.campaign_config()
        self.campaign_config = campaign or content
        if any(getattr(self.campaign_config, name) != getattr(content, name)
               for name in ("runs", "base_seed", "workloads", "model")):
            # meta.json pins the spec and the records derive from the
            # campaign: they must agree on everything record-determining.
            raise ValueError(
                "the campaign config disagrees with the spec on "
                "record-determining parameters; derive it with "
                "spec.campaign_config(**execution)")
        if store.model != spec.model:
            # Shard paths derive from the store's model and records derive
            # from the campaign's: a mismatch would file one model's
            # records under another's shards.
            raise ValueError(
                f"store is bound to fault model {store.model!r} but the "
                f"campaign uses {spec.model!r}; construct "
                f"ShardStore(root, model=...) to match"
            )
        self.chunk_size = chunk_size
        self._progress = progress
        #: Called with each executor backend right after construction,
        #: before it starts.  The campaign service uses this to count
        #: executor start-ups (a fully cached campaign constructs none)
        #: and to hand the socket executor its dynamic ``fleet_source``
        #: — per-invocation wiring that must not live in
        #: ``CampaignConfig``, whose fields travel the wire.
        self.on_executor = on_executor

    def _pin_meta(self) -> None:
        """Record the campaign parameters on first *write* to the store.

        Called from :meth:`run`, not the constructor, so read-only users
        (``python -m repro status`` on a fresh directory) never stamp a
        store with defaults that would block the real sweep later.  The
        pin is :meth:`CampaignSpec.store_meta`: only what the records
        depend on, never the executor backend, and the same dict the
        service hashes into its ``store_key``.

        Fixed sweeps pin an exact ``runs_per_cell``
        (``sweep-store-v1``); adaptive sweeps pin the stopping rule —
        ``(ci_width, run_floor, run_cap, confidence)`` — instead
        (``sweep-store-v2-adaptive``), because the per-cell run *count*
        is data-dependent there while everything else about the records
        stays seed-determined.  The two schemas never resume each other:
        ``ensure_meta`` raises ``StoreMismatchError`` on the mismatch.
        """
        self.store.ensure_meta(self.spec.store_meta())

    def _report(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def plan(self) -> List[SweepCell]:
        """The grid cells this orchestrator covers, in paper order."""
        return self.spec.cells()

    def _cell_counts(self, cell: SweepCell) -> Tuple[int, int, int]:
        """Persisted ``(total, catastrophic, acceptable)`` counts of a cell.

        Adaptive cells grow from index 0 without holes, so the persisted
        records must form a contiguous prefix; anything else means the
        store was written by a different planner and the stopping rule's
        canonical-count contract no longer holds.
        """
        records = self.store.load_records(cell.app_name, cell.mode,
                                          cell.errors)
        for index, record in enumerate(records):
            if record.run_index != index:
                raise ValueError(
                    f"adaptive cell ({cell.app_name}, {cell.mode.value}, "
                    f"{cell.errors} errors) has a non-contiguous record "
                    f"prefix (gap at run {index}); the store was not "
                    f"written by an adaptive sweep"
                )
        return (len(records),
                sum(1 for record in records if record.is_catastrophic),
                sum(1 for record in records if record.is_acceptable))

    def status(self) -> List[SweepStatus]:
        """Per-cell persisted/total counts for the planned grid.

        In adaptive mode ``total`` is the stopping rule's run cap and
        each status carries the rule's convergence verdict plus the
        persisted failure-rate CI half-width.
        """
        rule = self.spec.stopping
        if rule is not None:
            statuses = []
            for cell in self.plan():
                done, catastrophic, acceptable = self._cell_counts(cell)
                interval = (wilson_interval(catastrophic, done,
                                            rule.confidence)
                            if done else None)
                statuses.append(SweepStatus(
                    cell=cell, done=done, total=rule.cap,
                    converged=rule.satisfied(done, catastrophic, acceptable),
                    ci_half_width=(interval.half_width
                                   if interval is not None else None),
                ))
            return statuses
        runs = self.campaign_config.runs
        return [
            SweepStatus(
                cell=cell,
                done=runs - len(self.store.missing_indices(
                    cell.app_name, cell.mode, cell.errors, runs)),
                total=runs,
            )
            for cell in self.plan()
        ]

    def run(self) -> SweepReport:
        """Execute every missing run of the grid, chunk by chunk.

        Cells are grouped by application so one warm executor (and one
        memoized golden run) serves all of an app's cells; each completed
        chunk is appended to the store before the next starts, bounding
        the work an interruption can lose to ``chunk_size`` runs.

        In adaptive mode a cell's "missing" runs are not a fixed set:
        after each chunk the stopping rule re-evaluates the cell, and
        only the records up to the cell's canonical convergence point are
        persisted (see :meth:`_run_adaptive_cell`).
        """
        self._pin_meta()
        report = SweepReport()
        cells = self.plan()
        report.cells_total = len(cells)
        by_app: Dict[str, List[SweepCell]] = {}
        for cell in cells:
            by_app.setdefault(cell.app_name, []).append(cell)

        rule = self.spec.stopping
        runs = self.campaign_config.runs
        suite: Optional[Dict[str, ErrorTolerantApp]] = None
        for app_name, app_cells in by_app.items():
            pending: List[Tuple[SweepCell, List[int]]] = []
            adaptive_counts: Dict[SweepCell, Tuple[int, int, int]] = {}
            if rule is not None:
                for cell in app_cells:
                    counts = self._cell_counts(cell)
                    report.runs_reused += counts[0]
                    if rule.satisfied(*counts):
                        report.cells_skipped += 1
                    else:
                        adaptive_counts[cell] = counts
                        pending.append((cell, []))
            else:
                for cell in app_cells:
                    missing = self.store.missing_indices(
                        cell.app_name, cell.mode, cell.errors, runs)
                    report.runs_reused += runs - len(missing)
                    if missing:
                        pending.append((cell, missing))
                    else:
                        report.cells_skipped += 1
            if not pending:
                continue
            if suite is None:
                suite = SUITES[self.spec.suite]()
            executor = create_executor(suite[app_name], self.campaign_config)
            if self.on_executor is not None:
                # Post-construction, pre-start: the hook may attach
                # per-invocation wiring (e.g. a dynamic fleet source)
                # that the executor reads when it starts.
                self.on_executor(executor)
            with executor:
                for cell, missing in pending:
                    if rule is not None:
                        self._run_adaptive_cell(executor, cell,
                                                adaptive_counts[cell], report)
                        continue
                    done = runs - len(missing)
                    for chunk in _chunks(missing, self.chunk_size):
                        records = executor.run(_tasks(cell, chunk))
                        self.store.append_records(cell.app_name, cell.mode,
                                                  cell.errors, records)
                        report.runs_executed += len(records)
                        done += len(records)
                        self._report(
                            f"{cell.app_name} {cell.mode.value} "
                            f"e={cell.errors}: {done}/{runs}"
                        )
                self._collect_fleet(executor, report)
        report.statuses = self.status()
        return report

    def _collect_fleet(self, executor, report: SweepReport) -> None:
        """Fold one executor's fleet-health counters into the report/store.

        Collected *inside* the executor context (connections are still
        accounted), once per application group.  In-process backends have
        no ``fleet_stats`` and are skipped; all-zero fleets are too, so
        purely local sweeps never grow a ``fleet.json``.
        """
        stats_fn = getattr(executor, "fleet_stats", None)
        if stats_fn is None:
            return
        stats = stats_fn()
        interesting = (stats.get("fallback_runs", 0)
                       or any(any(counters.values()) for counters
                              in (stats.get("workers") or {}).values()))
        if not interesting:
            return
        workers = report.fleet.setdefault("workers", {})
        for address, counters in (stats.get("workers") or {}).items():
            slot = workers.setdefault(address, {})
            for key, value in counters.items():
                slot[key] = slot.get(key, 0) + value
        report.fleet["fallback_runs"] = (report.fleet.get("fallback_runs", 0)
                                         + stats.get("fallback_runs", 0))
        self.store.record_fleet_stats(stats)

    def _run_adaptive_cell(self, executor: Executor, cell: SweepCell,
                           counts: Tuple[int, int, int],
                           report: SweepReport) -> None:
        """Append runs to one cell until the stopping rule is satisfied.

        ``counts`` is the cell's persisted ``(total, catastrophic,
        acceptable)`` tally the planning pass already read — re-reading
        the shard here would double the store I/O per cell.

        Chunks are executed through the warm ``executor``, but records
        are persisted one at a time *logically*: the rule is re-evaluated
        after each record of the chunk, and records past the first
        satisfying count are dropped instead of written.  The persisted
        prefix is therefore exactly the cell's canonical run count —
        independent of ``chunk_size``, backend, and where a previous
        session was interrupted — at the cost of at most
        ``chunk_size - 1`` wasted (computed-but-unpersisted) runs.
        """
        rule = self.spec.stopping
        total, catastrophic, acceptable = counts
        while not rule.satisfied(total, catastrophic, acceptable):
            chunk = executor.run(_tasks(cell, range(
                total, min(total + self.chunk_size, rule.cap))))
            keep: List[RunRecord] = []
            for record in chunk:
                keep.append(record)
                total += 1
                catastrophic += record.is_catastrophic
                acceptable += record.is_acceptable
                if rule.satisfied(total, catastrophic, acceptable):
                    break
            self.store.append_records(cell.app_name, cell.mode, cell.errors,
                                      keep)
            report.runs_executed += len(keep)
            report.runs_discarded += len(chunk) - len(keep)
            width = wilson_interval(catastrophic, total,
                                    rule.confidence).half_width
            self._report(
                f"{cell.app_name} {cell.mode.value} e={cell.errors}: "
                f"{total} runs, failure CI ±{width:.2f} "
                f"(target ±{rule.ci_width:.2f}, cap {rule.cap})"
            )


def _tasks(cell: SweepCell, run_indices: Iterable[int]) -> List[RunTask]:
    return [(run_index, cell.errors, cell.mode) for run_index in run_indices]


def _chunks(items: Sequence[int], size: int) -> Iterable[List[int]]:
    for start in range(0, len(items), size):
        yield list(items[start:start + size])
