"""Per-run records and campaign-level aggregation.

Terminology follows Section 5 of the paper:

* **catastrophic failure** — the run crashed or never terminated;
* **fidelity** — the application-specific distance from the error-free
  output, computed only for runs that completed;
* **failure rate** — the fraction of runs that ended catastrophically,
  which is what Table 2 and the "% Failed Executions" series of the
  figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean
from typing import Dict, List, Optional

from ..sim import Outcome, ProtectionMode
from .fidelity import FidelityResult
from .stats import ConfidenceInterval, t_interval, wilson_interval


@dataclass
class RunRecord:
    """One fault-injection run."""

    run_index: int
    seed: int
    mode: ProtectionMode
    errors_requested: int
    errors_injected: int
    outcome: str
    executed: int
    fidelity: Optional[FidelityResult] = None
    fault_kind: Optional[str] = None
    #: Fault model the run was injected under (:mod:`repro.sim.models`).
    #: The default is elided from the JSON form so control-bit shards stay
    #: byte-identical to pre-model stores.
    model: str = "control-bit"

    @property
    def is_catastrophic(self) -> bool:
        return self.outcome in Outcome.CATASTROPHIC

    @property
    def completed(self) -> bool:
        return self.outcome == Outcome.COMPLETED

    @property
    def is_acceptable(self) -> bool:
        """Completed with fidelity within the application's threshold.

        The single definition of "acceptable" shared by the aggregation
        properties and the adaptive stopping rule's convergence counts.
        """
        return self.fidelity is not None and self.fidelity.acceptable

    def to_json(self) -> Dict:
        """Plain-dict form for the JSONL shard store.

        The encoding round-trips exactly: floats go through ``repr`` (the
        ``json`` module's encoder), enum modes through their values, so
        ``from_json(to_json(record)) == record`` bit-for-bit.
        """
        fidelity = None
        if self.fidelity is not None:
            # Coerce through builtins so the stored types do not depend on
            # the scorer: float() writes an int detail value as the float
            # from_json reads back, and keeps a double exact, so the
            # round-trip stays bit-identical.
            fidelity = {
                "score": float(self.fidelity.score),
                "acceptable": bool(self.fidelity.acceptable),
                "perfect": bool(self.fidelity.perfect),
                "detail": {str(key): float(value)
                           for key, value in self.fidelity.detail.items()},
            }
        data = {
            "run_index": self.run_index,
            "seed": self.seed,
            "mode": self.mode.value,
            "errors_requested": self.errors_requested,
            "errors_injected": self.errors_injected,
            "outcome": self.outcome,
            "executed": self.executed,
            "fidelity": fidelity,
            "fault_kind": self.fault_kind,
        }
        if self.model != "control-bit":
            # Elide the default so control-bit *shard files* stay
            # byte-identical to ones written before the fault model
            # subsystem existed (meta.json additionally pins the model, so
            # whole-store bytes may differ at that one file).
            data["model"] = self.model
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "RunRecord":
        fidelity = None
        if data["fidelity"] is not None:
            raw = data["fidelity"]
            fidelity = FidelityResult(
                score=raw["score"],
                acceptable=raw["acceptable"],
                perfect=raw["perfect"],
                detail=dict(raw["detail"]),
            )
        return cls(
            run_index=data["run_index"],
            seed=data["seed"],
            mode=ProtectionMode(data["mode"]),
            errors_requested=data["errors_requested"],
            errors_injected=data["errors_injected"],
            outcome=data["outcome"],
            executed=data["executed"],
            fidelity=fidelity,
            fault_kind=data["fault_kind"],
            model=data.get("model", "control-bit"),
        )


@dataclass
class CampaignResult:
    """All runs of one (application, protection mode, error count) cell."""

    app_name: str
    mode: ProtectionMode
    errors_requested: int
    records: List[RunRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Run counting.
    # ------------------------------------------------------------------
    @property
    def total_runs(self) -> int:
        return len(self.records)

    @property
    def completed_runs(self) -> int:
        return sum(1 for record in self.records if record.completed)

    @property
    def crash_runs(self) -> int:
        return sum(1 for record in self.records if record.outcome == Outcome.CRASH)

    @property
    def hang_runs(self) -> int:
        return sum(1 for record in self.records if record.outcome == Outcome.HANG)

    @property
    def catastrophic_runs(self) -> int:
        return self.crash_runs + self.hang_runs

    @property
    def acceptable_runs(self) -> int:
        return sum(1 for record in self.records if record.is_acceptable)

    # ------------------------------------------------------------------
    # Rates (all in percent, matching the paper's tables/figures).
    # ------------------------------------------------------------------
    def _percent(self, count: int) -> float:
        if not self.records:
            return 0.0
        return 100.0 * count / len(self.records)

    @property
    def failure_percent(self) -> float:
        """The paper's '% Failures' / '% Failed Executions'."""
        return self._percent(self.catastrophic_runs)

    @property
    def crash_percent(self) -> float:
        return self._percent(self.crash_runs)

    @property
    def hang_percent(self) -> float:
        return self._percent(self.hang_runs)

    @property
    def completed_percent(self) -> float:
        return self._percent(self.completed_runs)

    @property
    def acceptable_percent(self) -> float:
        """Percent of all runs that completed with acceptable fidelity."""
        return self._percent(self.acceptable_runs)

    # ------------------------------------------------------------------
    # Confidence intervals (see repro.core.stats).
    # ------------------------------------------------------------------
    def _rate_ci(self, count: int,
                 confidence: float) -> Optional[ConfidenceInterval]:
        """Wilson interval (percent) on a run count; ``None`` if no runs."""
        if not self.records:
            return None
        return wilson_interval(count, len(self.records), confidence)

    def failure_ci(self, confidence: float = 0.95) -> Optional[ConfidenceInterval]:
        """Wilson interval around :attr:`failure_percent`."""
        return self._rate_ci(self.catastrophic_runs, confidence)

    def acceptable_ci(self, confidence: float = 0.95) -> Optional[ConfidenceInterval]:
        """Wilson interval around :attr:`acceptable_percent`."""
        return self._rate_ci(self.acceptable_runs, confidence)

    def mean_fidelity_ci(self, confidence: float = 0.95) -> Optional[ConfidenceInterval]:
        """Student-t interval around :attr:`mean_fidelity`.

        ``None`` when fewer than two runs completed with a fidelity
        score — a single sample has no estimable variance.
        """
        return t_interval(self.fidelity_scores(), confidence)

    # ------------------------------------------------------------------
    # Fidelity aggregation.
    # ------------------------------------------------------------------
    def fidelity_scores(self) -> List[float]:
        return [
            record.fidelity.score
            for record in self.records
            if record.fidelity is not None
        ]

    @property
    def mean_fidelity(self) -> Optional[float]:
        scores = self.fidelity_scores()
        return fmean(scores) if scores else None

    def detail_mean(self, key: str) -> Optional[float]:
        """Mean of a named fidelity detail across completed runs."""
        values = [
            record.fidelity.detail[key]
            for record in self.records
            if record.fidelity is not None and key in record.fidelity.detail
        ]
        return fmean(values) if values else None

    def summary(self) -> Dict[str, Optional[float]]:
        """Flat numeric summary used by reports and benchmarks.

        JSON-safe: every value is a float or ``None`` — never NaN, which
        ``json.dumps`` would serialise as the non-standard literal
        ``NaN`` and break strict JSON consumers.  Unavailable statistics
        (mean fidelity of a cell with no completed runs, the ``*_moe``
        margins of an empty cell) are ``None``; renderers show them as
        ``-`` (:func:`~repro.core.report.format_cell`).
        """
        failure_ci = self.failure_ci()
        acceptable_ci = self.acceptable_ci()
        fidelity_ci = self.mean_fidelity_ci()
        return {
            "errors": float(self.errors_requested),
            "runs": float(self.total_runs),
            "failures_pct": self.failure_percent,
            "crash_pct": self.crash_percent,
            "hang_pct": self.hang_percent,
            "mean_fidelity": self.mean_fidelity,
            "acceptable_pct": self.acceptable_percent,
            # 95% margins of error (CI half-widths) on the estimates above.
            "failures_pct_moe": (failure_ci.half_width
                                 if failure_ci is not None else None),
            "acceptable_pct_moe": (acceptable_ci.half_width
                                   if acceptable_ci is not None else None),
            "mean_fidelity_moe": (fidelity_ci.half_width
                                  if fidelity_ci is not None else None),
        }


@dataclass
class SweepResult:
    """A sweep over error counts for one application and protection mode."""

    app_name: str
    mode: ProtectionMode
    cells: List[CampaignResult] = field(default_factory=list)

    def errors_axis(self) -> List[int]:
        return [cell.errors_requested for cell in self.cells]

    def failure_series(self) -> List[float]:
        return [cell.failure_percent for cell in self.cells]

    def fidelity_series(self) -> List[Optional[float]]:
        return [cell.mean_fidelity for cell in self.cells]

    def failure_error_series(self,
                             confidence: float = 0.95) -> List[Optional[float]]:
        """Per-cell CI half-widths matching :meth:`failure_series`."""
        intervals = [cell.failure_ci(confidence) for cell in self.cells]
        return [interval.half_width if interval is not None else None
                for interval in intervals]

    def fidelity_error_series(self,
                              confidence: float = 0.95) -> List[Optional[float]]:
        """Per-cell CI half-widths matching :meth:`fidelity_series`."""
        intervals = [cell.mean_fidelity_ci(confidence) for cell in self.cells]
        return [interval.half_width if interval is not None else None
                for interval in intervals]

    def cell(self, errors: int) -> CampaignResult:
        for candidate in self.cells:
            if candidate.errors_requested == errors:
                return candidate
        raise KeyError(f"no campaign cell for {errors} errors")
