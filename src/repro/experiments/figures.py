"""Reproduction of the paper's figures (1-6).

Each figure is an error-count sweep for one application.  The y series
mirror what the paper plots:

* Figure 1 (Susan): PSNR of the edge image with the analysis ON vs. OFF,
  plus the 10 dB fidelity threshold.
* Figure 2 (MPEG): % bad frames and % failed executions (protection ON).
* Figure 3 (MCF): % optimal schedules found and % failed runs.
* Figure 4 (Blowfish): % bytes correct and % failed executions.
* Figure 5 (GSM): SNR relative to the error-free decode and % failures.
* Figure 6 (ART): % images recognised and % failed executions.

All figures are returned as :class:`~repro.core.report.FigureData`, which
renders to an aligned text table (one row per error count).  Failure and
fidelity series carry symmetric error bars — Wilson-score (rates) and
Student-t (means) 95% CI half-widths from :mod:`repro.core.stats` —
rendered as ``value ±error``.

Every builder takes the campaign as ``config``, a
:class:`~repro.service.spec.CampaignSpec` (default ``CampaignSpec()``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..apps import SUITES
from ..core import FigureData, ShardStore, SweepResult
from ..core.app import ErrorTolerantApp
from ..service.spec import CampaignSpec
from ..sim import ProtectionMode
from .tables import artefact_spec, live_campaign, store_confidence


def _sweep(app: ErrorTolerantApp, config: CampaignSpec,
           errors_axis: Sequence[int], mode: ProtectionMode,
           store: Optional[ShardStore] = None):
    """One figure series: simulated live, or loaded from a sweep's store.

    With ``store`` the cells come from ``python -m repro sweep`` shards;
    a cell missing from the store raises ``KeyError`` instead of silently
    re-simulating, so figures regenerated from a store are exactly the
    persisted records.
    """
    if store is not None:
        return store.load_sweep(app.name, mode, errors_axis,
                                expect_runs=config.runs_per_cell)
    campaign = config.campaign_config()
    return SweepResult(app.name, mode, [
        live_campaign(app, campaign, errors, mode) for errors in errors_axis])


def figure1_susan(config: Optional[CampaignSpec] = None,
                  errors_axis: Optional[Sequence[int]] = None,
                  store: Optional[ShardStore] = None) -> FigureData:
    """Susan: PSNR vs. injected errors, static analysis ON vs. OFF."""
    config = artefact_spec(config)
    confidence = store_confidence(store)
    app = SUITES[config.suite]()["susan"]
    axis = list(errors_axis if errors_axis is not None else app.default_error_sweep)
    protected = _sweep(app, config, axis, ProtectionMode.PROTECTED, store)
    unprotected = _sweep(app, config, axis, ProtectionMode.UNPROTECTED, store)
    figure = FigureData(
        title="Figure 1: Susan — PSNR of pictures with errors",
        x_label="errors inserted",
        x_values=[float(errors) for errors in axis],
    )
    figure.add_series("PSNR (analysis ON) [dB]", protected.fidelity_series(),
                      errors=protected.fidelity_error_series(confidence))
    figure.add_series("PSNR (analysis OFF) [dB]", unprotected.fidelity_series(),
                      errors=unprotected.fidelity_error_series(confidence))
    figure.add_series("fidelity threshold [dB]", [10.0] * len(axis))
    figure.add_series("% failures (analysis ON)", protected.failure_series(),
                      errors=protected.failure_error_series(confidence))
    figure.add_series("% failures (analysis OFF)", unprotected.failure_series(),
                      errors=unprotected.failure_error_series(confidence))
    return figure


def figure2_mpeg(config: Optional[CampaignSpec] = None,
                 errors_axis: Optional[Sequence[int]] = None,
                 store: Optional[ShardStore] = None) -> FigureData:
    """MPEG: % bad frames and % failed executions (protection ON)."""
    config = artefact_spec(config)
    confidence = store_confidence(store)
    app = SUITES[config.suite]()["mpeg"]
    axis = list(errors_axis if errors_axis is not None else app.default_error_sweep)
    protected = _sweep(app, config, axis, ProtectionMode.PROTECTED, store)
    figure = FigureData(
        title="Figure 2: MPEG — bad frames vs. errors (static analysis ON)",
        x_label="errors inserted",
        x_values=[float(errors) for errors in axis],
    )
    figure.add_series("% bad frames", protected.fidelity_series(),
                      errors=protected.fidelity_error_series(confidence))
    figure.add_series("% failed executions", protected.failure_series(),
                      errors=protected.failure_error_series(confidence))
    figure.add_series("fidelity threshold [%]", [10.0] * len(axis))
    return figure


def figure3_mcf(config: Optional[CampaignSpec] = None,
                errors_axis: Optional[Sequence[int]] = None,
                store: Optional[ShardStore] = None) -> FigureData:
    """MCF: % optimal schedules found and % failed runs."""
    config = artefact_spec(config)
    confidence = store_confidence(store)
    app = SUITES[config.suite]()["mcf"]
    axis = list(errors_axis if errors_axis is not None else app.default_error_sweep)
    protected = _sweep(app, config, axis, ProtectionMode.PROTECTED, store)
    optimal_series = [
        100.0 * cell.detail_mean("optimal") if cell.detail_mean("optimal") is not None else None
        for cell in protected.cells
    ]
    figure = FigureData(
        title="Figure 3: MCF — optimal schedules vs. errors (static analysis ON)",
        x_label="errors inserted",
        x_values=[float(errors) for errors in axis],
    )
    figure.add_series("% optimal schedules found", optimal_series)
    figure.add_series("% failed executions", protected.failure_series(),
                      errors=protected.failure_error_series(confidence))
    return figure


def figure4_blowfish(config: Optional[CampaignSpec] = None,
                     errors_axis: Optional[Sequence[int]] = None,
                     store: Optional[ShardStore] = None) -> FigureData:
    """Blowfish: % bytes correct and % failed executions."""
    config = artefact_spec(config)
    confidence = store_confidence(store)
    app = SUITES[config.suite]()["blowfish"]
    axis = list(errors_axis if errors_axis is not None else app.default_error_sweep)
    protected = _sweep(app, config, axis, ProtectionMode.PROTECTED, store)
    figure = FigureData(
        title="Figure 4: Blowfish — bytes correct vs. errors (static analysis ON)",
        x_label="errors inserted",
        x_values=[float(errors) for errors in axis],
    )
    figure.add_series("% bytes correct", protected.fidelity_series(),
                      errors=protected.fidelity_error_series(confidence))
    figure.add_series("% failed executions", protected.failure_series(),
                      errors=protected.failure_error_series(confidence))
    return figure


def figure5_gsm(config: Optional[CampaignSpec] = None,
                errors_axis: Optional[Sequence[int]] = None,
                store: Optional[ShardStore] = None) -> FigureData:
    """GSM: SNR relative to the error-free decode and % failed executions."""
    config = artefact_spec(config)
    confidence = store_confidence(store)
    app = SUITES[config.suite]()["gsm"]
    axis = list(errors_axis if errors_axis is not None else app.default_error_sweep)
    protected = _sweep(app, config, axis, ProtectionMode.PROTECTED, store)
    snr_percent = [cell.detail_mean("snr_percent_of_optimal") for cell in protected.cells]
    snr_loss = [cell.detail_mean("snr_loss_db") for cell in protected.cells]
    figure = FigureData(
        title="Figure 5: GSM — SNR vs. errors (static analysis ON)",
        x_label="errors inserted",
        x_values=[float(errors) for errors in axis],
    )
    figure.add_series("% SNR from optimal", snr_percent)
    figure.add_series("SNR loss [dB]", snr_loss)
    figure.add_series("% failed executions", protected.failure_series(),
                      errors=protected.failure_error_series(confidence))
    return figure


def figure6_art(config: Optional[CampaignSpec] = None,
                errors_axis: Optional[Sequence[int]] = None,
                store: Optional[ShardStore] = None) -> FigureData:
    """ART: % images recognised and % failed executions."""
    config = artefact_spec(config)
    confidence = store_confidence(store)
    app = SUITES[config.suite]()["art"]
    axis = list(errors_axis if errors_axis is not None else app.default_error_sweep)
    protected = _sweep(app, config, axis, ProtectionMode.PROTECTED, store)
    recognised = [
        100.0 * cell.detail_mean("recognized") if cell.detail_mean("recognized") is not None else None
        for cell in protected.cells
    ]
    figure = FigureData(
        title="Figure 6: ART — images recognised vs. errors (static analysis ON)",
        x_label="errors inserted",
        x_values=[float(errors) for errors in axis],
    )
    figure.add_series("% images recognised", recognised)
    figure.add_series("confidence error", protected.fidelity_series(),
                      errors=protected.fidelity_error_series(confidence))
    figure.add_series("% failed executions", protected.failure_series(),
                      errors=protected.failure_error_series(confidence))
    return figure


ALL_FIGURES = {
    "figure1": figure1_susan,
    "figure2": figure2_mpeg,
    "figure3": figure3_mcf,
    "figure4": figure4_blowfish,
    "figure5": figure5_gsm,
    "figure6": figure6_art,
}
