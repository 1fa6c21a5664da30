"""Experiment harness: one entry point per paper table and figure.

A :class:`~repro.service.spec.CampaignSpec` is the one description of a
campaign here: the sweep orchestrator, its grid walk
(:meth:`CampaignSpec.cells`) and every table and figure builder take it
whole.  Campaigns are submitted through :mod:`repro.api` (a spec plus
execution options): :func:`repro.api.submit` runs them, and the rare
embedding that needs the orchestrator object itself calls
:func:`repro.api.build_orchestrator`.  Artefact cells rendered without a
store are simulated by :func:`live_campaign`.
"""

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
    SweepCell,
    SweepReport,
    SweepStatus,
    grid_errors_axis,
)
from .tables import (
    TABLE2_ERROR_COUNTS,
    live_campaign,
    table1_applications,
    table2_catastrophic_failures,
    table3_low_reliability_instructions,
    table4_fault_models,
    table5_static_vs_dynamic,
)

__all__ = [
    "ALL_FIGURES",
    "SweepCell",
    "SweepReport",
    "SweepStatus",
    "TABLE2_ERROR_COUNTS",
    "figure1_susan",
    "figure2_mpeg",
    "figure3_mcf",
    "figure4_blowfish",
    "figure5_gsm",
    "figure6_art",
    "grid_errors_axis",
    "live_campaign",
    "table1_applications",
    "table2_catastrophic_failures",
    "table3_low_reliability_instructions",
    "table4_fault_models",
    "table5_static_vs_dynamic",
]
