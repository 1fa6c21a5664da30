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

Resumability is the point: the orchestrator plans each cell as the run
indices *missing* from the store and asks one executor of whatever
backend the campaign config selects (in-process, local process pool, or
TCP workers on other hosts) for them in *rounds*: one ``run`` call per
round, carrying the pending runs of every cell that still needs runs.
Each cell's records are appended to disk in chunks as they arrive.  Kill
it anywhere — even mid-cell, even mid-write — and a later invocation
(with any backend) recomputes only the runs whose records never landed,
producing a store byte-identical to an uninterrupted serial sweep.

Two planning modes share that one round loop:

* **Fixed** (the default): every cell gets exactly ``runs_per_cell``
  runs, pinned in ``meta.json``, all in one round.
* **Adaptive** (a spec with ``stopping=StoppingRule(...)``, CLI ``sweep
  --adaptive``): each cell adds its next chunk of runs to every round
  until the failure-rate and acceptable-rate Wilson intervals are
  narrower than the rule's target half-width (with a floor and a cap),
  so the sweep spends runs where the estimates are still noisy and stops
  early where they have converged.  The canonical run count of a cell
  is the *smallest* ``n`` in ``[floor, cap]`` whose first ``n`` records
  satisfy the rule — a pure function of the cell's own record stream,
  which itself is a pure function of ``(base_seed, run_index, errors,
  model)`` — so adaptive stores stay byte-deterministic across executor
  backends, interruptions, chunk sizes and the other cells of a round.
  ``meta.json`` pins the rule ``(ci_width, run_floor, run_cap,
  confidence)`` instead of an exact ``runs_per_cell``.

``python -m repro sweep`` is the CLI front end; ``experiments.tables``
and ``experiments.figures`` regenerate the paper artefacts from a store:
the resulting one, or a temporary one they sweep themselves.
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
    #: in its last round and therefore never persisted (the price of
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
        return self._plan_pass()[0].statuses

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

    def _plan_pass(self) -> Tuple[SweepReport, Dict[SweepCell, SweepStatus],
                                  List[Tuple[SweepCell, List[int]]],
                                  Dict[SweepCell, Tuple[int, int, int]]]:
        """Read each planned cell's shard once and sort the cells.

        Returns the report of a sweep that runs nothing (``statuses`` in
        cell order, ``runs_reused``, ``cells_skipped``), each cell's
        status, the pending cells with the run indices of their first
        round, and each adaptive cell's persisted ``(total,
        catastrophic, acceptable)`` counts.
        """
        report = SweepReport()
        cells = self.plan()
        report.cells_total = len(cells)
        rule = self.spec.stopping
        runs = self.campaign_config.runs
        statuses: Dict[SweepCell, SweepStatus] = {}
        pending: List[Tuple[SweepCell, List[int]]] = []
        counts: Dict[SweepCell, Tuple[int, int, int]] = {}
        for cell in cells:
            if rule is not None:
                counts[cell] = self._cell_counts(cell)
                status = self._adaptive_status(cell, counts[cell])
                runs_next = self._adaptive_round(status.done)
            else:
                runs_next = self.store.missing_indices(
                    cell.app_name, cell.mode, cell.errors, runs)
                status = SweepStatus(cell=cell, done=runs - len(runs_next),
                                     total=runs)
            statuses[cell] = status
            report.runs_reused += status.done
            if status.complete:
                report.cells_skipped += 1
            else:
                pending.append((cell, runs_next))
        report.statuses = [statuses[cell] for cell in cells]
        return report, statuses, pending, counts

    def _adaptive_round(self, total: int) -> List[int]:
        """The runs an adaptive cell with ``total`` records asks for in
        its next round: its next ``chunk_size``, or all up to the rule's
        floor (below which no run is discarded), within the cap."""
        rule = self.spec.stopping
        return list(range(total, min(max(total + self.chunk_size,
                                          rule.floor), rule.cap)))

    def cached_report(self) -> Optional[SweepReport]:
        """The report :meth:`run` would return if the store already holds
        every planned run, else ``None``.

        Read-only: it writes nothing, builds no executor and takes no
        lock.  A cell once complete is never written again, so reading
        complete cells beside a writer is safe; a cell a writer is still
        filling reads as pending.  Raises as :meth:`run` does on a store
        pinned to other parameters or an adaptive cell with a gap.
        """
        if self.store.read_meta() is None:
            return None  # a fresh store holds no run
        self._pin_meta()  # only compares: the store's meta exists
        report, _, pending, _ = self._plan_pass()
        return None if pending else report

    def run(self) -> SweepReport:
        """Execute every missing run of the grid through one executor.

        The planning pass reads each cell's shard once.  One executor,
        built with the applications that have pending cells, then serves
        the whole sweep in *rounds* (:meth:`_run_rounds`): one ``run``
        call each, carrying the pending runs of every cell that still
        needs runs, in cell order.  Records are appended in chunks of
        ``chunk_size`` as they arrive, so an interruption loses only runs
        not yet appended — those in flight on the backend and the
        unfilled part of the chunk being collected.

        A fixed cell needs one round, of its missing run indices, so a
        fixed sweep makes one ``run`` call.  An adaptive cell asks for
        its next chunk every round until its stopping rule is satisfied,
        so an adaptive sweep makes as many calls as its slowest cell
        takes chunks.

        The report's statuses come from the planning pass plus what the
        run appended, not from a second read of the store.
        """
        self._pin_meta()
        report, statuses, pending, counts = self._plan_pass()
        if pending:
            suite = SUITES[self.spec.suite]()
            apps = [suite[name] for name in dict.fromkeys(
                cell.app_name for cell, _ in pending)]
            executor = create_executor(apps, self.campaign_config, pending=sum(
                statuses[cell].total - statuses[cell].done
                for cell, _ in pending))
            report.executors_started = 1
            if self.on_executor is not None:
                # Post-construction, pre-start: the hook may attach
                # per-invocation wiring (e.g. a dynamic fleet source)
                # that the executor reads when it starts.
                self.on_executor(executor)
            with executor:
                self._run_rounds(executor, pending, counts, statuses, report)
                self._collect_fleet(executor, report)
        report.statuses = [statuses[status.cell]
                           for status in report.statuses]
        return report

    def _run_rounds(self, executor: Executor,
                    pending: List[Tuple[SweepCell, List[int]]],
                    counts: Dict[SweepCell, Tuple[int, int, int]],
                    statuses: Dict[SweepCell, SweepStatus],
                    report: SweepReport) -> None:
        """Run rounds until no cell of ``pending`` needs runs.

        Each round is one ``executor.run`` call with the round's runs of
        every pending cell; each cell's records are appended chunk by
        chunk as they arrive.  An adaptive cell folds its records
        through the stopping rule in run-index order and drops those
        past the first satisfying count, so its persisted prefix is its
        canonical run count — a function of its own records only, not of
        ``chunk_size``, the backend, the other cells of a round or where
        an earlier session was interrupted — at the cost of at most
        ``chunk_size - 1`` computed-but-unpersisted runs per cell.
        """
        rule = self.spec.stopping
        while pending:
            records = iter(executor.run([
                task for cell, runs_next in pending
                for task in _tasks(cell, runs_next)]))
            for cell, runs_next in pending:
                for chunk in _chunks(runs_next, self.chunk_size):
                    batch = list(islice(records, len(chunk)))
                    if rule is None:
                        keep = batch
                        status = statuses[cell]
                        status.done += len(keep)
                        line = f"{status.done}/{status.total}"
                    else:
                        keep = self._fold(cell, batch, counts)
                        status = statuses[cell] = self._adaptive_status(
                            cell, counts[cell])
                        line = (f"{status.done} runs, failure CI "
                                f"±{status.ci_half_width:.2f} (target "
                                f"±{rule.ci_width:.2f}, cap {rule.cap})")
                    self.store.append_records(cell.app_name, cell.mode,
                                              cell.errors, keep)
                    report.runs_executed += len(keep)
                    report.runs_discarded += len(batch) - len(keep)
                    self._report(f"{cell.app_name} {cell.mode.value} "
                                 f"e={cell.errors}: {line}")
            pending = [(cell, self._adaptive_round(counts[cell][0]))
                       for cell, _ in pending if not statuses[cell].complete]

    def _fold(self, cell: SweepCell, batch: List[RunRecord],
              counts: Dict[SweepCell, Tuple[int, int, int]]
              ) -> List[RunRecord]:
        """The records of ``batch`` an adaptive cell keeps (those up to
        the first that satisfies the rule); updates ``counts[cell]``."""
        rule = self.spec.stopping
        total, catastrophic, acceptable = counts[cell]
        keep: List[RunRecord] = []
        for record in batch:
            if rule.satisfied(total, catastrophic, acceptable):
                break
            keep.append(record)
            total += 1
            catastrophic += record.is_catastrophic
            acceptable += record.is_acceptable
        counts[cell] = (total, catastrophic, acceptable)
        return keep

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


def _tasks(cell: SweepCell, run_indices: Iterable[int]) -> List[RunTask]:
    return [(cell.app_name, run_index, cell.errors, cell.mode)
            for run_index in run_indices]


def _chunks(items: Sequence[int], size: int) -> Iterable[List[int]]:
    for start in range(0, len(items), size):
        yield list(items[start:start + size])
