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
run indices *missing* from the store, hands every missing run of the
sweep to one executor of whatever backend the campaign config selects
(in-process, local process pool, or TCP workers on other hosts), and
appends each cell's records to disk in chunks as they arrive.  Kill it
anywhere — even mid-cell, even mid-write — and a later invocation (with
any backend) recomputes only the runs whose records never landed,
producing a store byte-identical to an uninterrupted serial sweep.

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
from itertools import islice
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

    def to_json(self) -> Dict:
        """The cell's entry in ``status --json`` and the daemon's
        ``?cells=1`` status payloads."""
        return {
            "app": self.cell.app_name,
            "mode": self.cell.mode.value,
            "errors": self.cell.errors,
            "done": self.done,
            "total": self.total,
            "complete": self.complete,
            "ci_half_width": self.ci_half_width,
        }


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
    #: Executor backends the sweep built: 0 when every cell was already
    #: in the store, else 1 (one executor serves the whole sweep).
    executors_started: int = 0


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
    is ``spec.campaign_config()``: fork engine, one worker process per
    usable CPU).
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
        #: Called with the executor backend right after construction,
        #: before it starts.  The campaign service uses this to hand the
        #: socket executor its dynamic ``fleet_source`` — per-invocation
        #: wiring that must not live in ``CampaignConfig``, whose fields
        #: travel the wire.
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
        if self.spec.stopping is not None:
            return [self._adaptive_status(cell, self._cell_counts(cell))
                    for cell in self.plan()]
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

    def _adaptive_status(self, cell: SweepCell,
                         counts: Tuple[int, int, int]) -> SweepStatus:
        """Status of an adaptive cell with persisted ``(total,
        catastrophic, acceptable)`` counts."""
        rule = self.spec.stopping
        done, catastrophic, acceptable = counts
        interval = (wilson_interval(catastrophic, done, rule.confidence)
                    if done else None)
        return SweepStatus(
            cell=cell, done=done, total=rule.cap,
            converged=rule.satisfied(done, catastrophic, acceptable),
            ci_half_width=(interval.half_width
                           if interval is not None else None),
        )

    def run(self) -> SweepReport:
        """Execute every missing run of the grid through one executor.

        The planning pass reads each cell's shard once.  One executor,
        built with the applications that have pending cells, then serves
        the whole sweep: a fixed sweep hands it every missing run in one
        ``run`` call and appends each cell's records in chunks of
        ``chunk_size`` as they arrive, so an interruption loses only runs
        not yet appended — those in flight on the backend and the
        unfilled part of the chunk being collected.

        In adaptive mode a cell's "missing" runs are not a fixed set:
        after each chunk the stopping rule re-evaluates the cell, and
        only the records up to the cell's canonical convergence point are
        persisted (see :meth:`_run_adaptive_cell`).

        The report's statuses come from the planning pass plus what the
        run appended, not from a second read of the store.
        """
        self._pin_meta()
        report = SweepReport()
        cells = self.plan()
        report.cells_total = len(cells)
        rule = self.spec.stopping
        runs = self.campaign_config.runs
        statuses: Dict[SweepCell, SweepStatus] = {}
        fixed: List[Tuple[SweepCell, List[int]]] = []
        adaptive: List[Tuple[SweepCell, Tuple[int, int, int]]] = []
        for cell in cells:
            if rule is not None:
                counts = self._cell_counts(cell)
                report.runs_reused += counts[0]
                statuses[cell] = self._adaptive_status(cell, counts)
                if statuses[cell].complete:
                    report.cells_skipped += 1
                else:
                    adaptive.append((cell, counts))
            else:
                missing = self.store.missing_indices(
                    cell.app_name, cell.mode, cell.errors, runs)
                report.runs_reused += runs - len(missing)
                statuses[cell] = SweepStatus(cell=cell,
                                             done=runs - len(missing),
                                             total=runs)
                if missing:
                    fixed.append((cell, missing))
                else:
                    report.cells_skipped += 1

        if fixed or adaptive:
            suite = SUITES[self.spec.suite]()
            apps = [suite[name] for name in dict.fromkeys(
                cell.app_name for cell, _ in fixed + adaptive)]
            pending_runs = (sum(len(missing) for _, missing in fixed)
                            + sum(rule.cap - counts[0]
                                  for _, counts in adaptive))
            executor = create_executor(apps, self.campaign_config,
                                       pending=pending_runs)
            report.executors_started = 1
            if self.on_executor is not None:
                # Post-construction, pre-start: the hook may attach
                # per-invocation wiring (e.g. a dynamic fleet source)
                # that the executor reads when it starts.
                self.on_executor(executor)
            with executor:
                self._run_fixed(executor, fixed, statuses, report)
                for cell, counts in adaptive:
                    counts = self._run_adaptive_cell(executor, cell, counts,
                                                     report)
                    statuses[cell] = self._adaptive_status(cell, counts)
                self._collect_fleet(executor, report)
        report.statuses = [statuses[cell] for cell in cells]
        return report

    def _run_fixed(self, executor: Executor,
                   pending: List[Tuple[SweepCell, List[int]]],
                   statuses: Dict[SweepCell, SweepStatus],
                   report: SweepReport) -> None:
        """Run every missing run of ``pending`` in one executor call and
        append each cell's records, chunk by chunk, as they arrive."""
        runs = self.campaign_config.runs
        records = iter(executor.run([task for cell, missing in pending
                                     for task in _tasks(cell, missing)]))
        for cell, missing in pending:
            status = statuses[cell]
            for chunk in _chunks(missing, self.chunk_size):
                batch = list(islice(records, len(chunk)))
                self.store.append_records(cell.app_name, cell.mode,
                                          cell.errors, batch)
                report.runs_executed += len(batch)
                status.done += len(batch)
                self._report(
                    f"{cell.app_name} {cell.mode.value} "
                    f"e={cell.errors}: {status.done}/{runs}"
                )

    def _collect_fleet(self, executor, report: SweepReport) -> None:
        """Fold one executor's fleet-health counters into the report/store.

        Collected *inside* the executor context (connections are still
        accounted), once per sweep.  In-process backends have
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
        if interesting:
            report.fleet = stats
            self.store.record_fleet_stats(stats)

    def _run_adaptive_cell(self, executor: Executor, cell: SweepCell,
                           counts: Tuple[int, int, int],
                           report: SweepReport) -> Tuple[int, int, int]:
        """Append runs to one cell until the stopping rule is satisfied;
        returns the cell's final ``(total, catastrophic, acceptable)``.

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
            chunk = list(executor.run(_tasks(cell, range(
                total, min(total + self.chunk_size, rule.cap)))))
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
        return total, catastrophic, acceptable


def _tasks(cell: SweepCell, run_indices: Iterable[int]) -> List[RunTask]:
    return [(cell.app_name, run_index, cell.errors, cell.mode)
            for run_index in run_indices]


def _chunks(items: Sequence[int], size: int) -> Iterable[List[int]]:
    for start in range(0, len(items), size):
        yield list(items[start:start + size])
