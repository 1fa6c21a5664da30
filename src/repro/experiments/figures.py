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

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ..apps.registry import app_class
from ..core import FigureData, ShardStore, SweepResult
from ..service.spec import CampaignSpec
from ..sim import ProtectionMode
from .tables import artefact_spec, store_confidence, swept_store


def _sweeps(config: Optional[CampaignSpec], name: str,
            errors_axis: Optional[Sequence[int]],
            store: Optional[ShardStore], *modes: ProtectionMode
            ) -> Tuple[List[int], float, List[SweepResult]]:
    """A figure's error axis, CI level, and one series per mode.

    With ``store`` the cells come from ``python -m repro sweep`` shards;
    a cell missing from the store raises ``KeyError`` instead of silently
    re-simulating, so figures regenerated from a store are exactly the
    persisted records.  Without one, the figure's cells are swept into a
    temporary store.  The axis defaults to the application's figure
    series.
    """
    config = artefact_spec(config)
    axis = list(errors_axis if errors_axis is not None
                else app_class(name).default_error_sweep)
    spec = dataclasses.replace(config, apps=(name,), errors=tuple(axis),
                               modes=tuple(mode.value for mode in modes))
    with swept_store(store, [spec]) as cells:
        return axis, store_confidence(store), [
            cells.load_sweep(name, mode, axis,
                             expect_runs=config.runs_per_cell)
            for mode in modes]


def figure1_susan(config: Optional[CampaignSpec] = None,
                  errors_axis: Optional[Sequence[int]] = None,
                  store: Optional[ShardStore] = None) -> FigureData:
    """Susan: PSNR vs. injected errors, static analysis ON vs. OFF."""
    axis, confidence, (protected, unprotected) = _sweeps(
        config, "susan", errors_axis, store, ProtectionMode.PROTECTED,
        ProtectionMode.UNPROTECTED)
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
    axis, confidence, (protected,) = _sweeps(
        config, "mpeg", errors_axis, store, ProtectionMode.PROTECTED)
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
    axis, confidence, (protected,) = _sweeps(
        config, "mcf", errors_axis, store, ProtectionMode.PROTECTED)
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
    axis, confidence, (protected,) = _sweeps(
        config, "blowfish", errors_axis, store, ProtectionMode.PROTECTED)
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
    axis, confidence, (protected,) = _sweeps(
        config, "gsm", errors_axis, store, ProtectionMode.PROTECTED)
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
    axis, confidence, (protected,) = _sweeps(
        config, "art", errors_axis, store, ProtectionMode.PROTECTED)
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
