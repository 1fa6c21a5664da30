"""Experiment harness: one entry point per paper table and figure.

A :class:`~repro.service.spec.CampaignSpec` is the one description of a
campaign here: the sweep orchestrator, its grid walk
(:meth:`CampaignSpec.cells`) and every table and figure builder take it
whole.  Campaigns are submitted through :mod:`repro.api` (a spec plus
execution options): :func:`repro.api.submit` runs them, and the rare
embedding that needs the orchestrator object itself calls
:func:`repro.api.build_orchestrator`.  Artefacts always read a shard
store; rendered without one, a builder sweeps the cells it needs into a
temporary store (:func:`~repro.experiments.tables.swept_store`).
:func:`live_campaign` runs one cell of an application instance that no
suite builds, outside any store.
"""

from ..core import CampaignConfig, CampaignResult, ErrorTolerantApp
from ..exec import create_executor
from ..sim import ProtectionMode
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
    table1_applications,
    table2_catastrophic_failures,
    table3_low_reliability_instructions,
    table4_fault_models,
    table5_static_vs_dynamic,
)



def live_campaign(app: ErrorTolerantApp, config: CampaignConfig, errors: int,
                  mode: ProtectionMode) -> CampaignResult:
    """One campaign cell of an application instance, outside any store.

    Runs ``config.runs`` executions of ``app`` with ``errors`` injected
    bit flips in ``mode`` on the executor backend ``config`` resolves to.
    """
    with create_executor([app], config, pending=config.runs) as executor:
        records = list(executor.run([(app.name, run_index, errors, mode)
                                     for run_index in range(config.runs)]))
    return CampaignResult(app_name=app.name, mode=mode,
                          errors_requested=errors, records=records)


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
