"""Experiment harness: one entry point per paper table and figure.

Campaigns are submitted through :mod:`repro.api` (a
:class:`~repro.service.spec.CampaignSpec` plus execution options):
:func:`repro.api.submit` runs them, and the rare embedding that needs the
orchestrator object itself calls :func:`repro.api.build_orchestrator`.
"""

from .config import ExperimentConfig, default, full, quick
from .figures import (
    ALL_FIGURES,
    figure1_susan,
    figure2_mpeg,
    figure3_mcf,
    figure4_blowfish,
    figure5_gsm,
    figure6_art,
)
from .sweep import (
    GRID_MODES,
    SweepCell,
    SweepReport,
    SweepStatus,
    grid_errors_axis,
    paper_grid,
)
from .tables import (
    TABLE2_ERROR_COUNTS,
    table1_applications,
    table2_catastrophic_failures,
    table3_low_reliability_instructions,
    table4_fault_models,
    table5_static_vs_dynamic,
)

__all__ = [
    "ALL_FIGURES",
    "ExperimentConfig",
    "GRID_MODES",
    "SweepCell",
    "SweepReport",
    "SweepStatus",
    "TABLE2_ERROR_COUNTS",
    "default",
    "figure1_susan",
    "figure2_mpeg",
    "figure3_mcf",
    "figure4_blowfish",
    "figure5_gsm",
    "figure6_art",
    "full",
    "grid_errors_axis",
    "paper_grid",
    "quick",
    "table1_applications",
    "table2_catastrophic_failures",
    "table3_low_reliability_instructions",
    "table4_fault_models",
    "table5_static_vs_dynamic",
]
