"""Core experiment machinery: applications, campaigns, outcomes, reporting."""

from .app import WATCHDOG_FACTOR, ErrorTolerantApp, GoldenRun
from .campaign import ENGINE_NAMES, ENGINES, CampaignConfig
from .fidelity import FidelityMeasure, FidelityResult
from .outcomes import CampaignResult, RunRecord, SweepResult
from .report import FigureData, Series, TableData, format_table
from .stats import (
    ConfidenceInterval,
    StoppingRule,
    t_interval,
    wilson_interval,
)
from .store import MissingCellError, ShardStore, StoreMismatchError

__all__ = [
    "CampaignConfig",
    "ConfidenceInterval",
    "StoppingRule",
    "t_interval",
    "wilson_interval",
    "CampaignResult",
    "ENGINE_NAMES",
    "ENGINES",
    "ErrorTolerantApp",
    "FidelityMeasure",
    "FidelityResult",
    "FigureData",
    "GoldenRun",
    "MissingCellError",
    "RunRecord",
    "Series",
    "ShardStore",
    "StoreMismatchError",
    "SweepResult",
    "TableData",
    "WATCHDOG_FACTOR",
    "format_table",
]
