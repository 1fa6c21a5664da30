"""Benchmarks regenerating the paper's figures (Figures 1-6)."""

from repro.experiments import (
    figure1_susan,
    figure2_mpeg,
    figure3_mcf,
    figure4_blowfish,
    figure5_gsm,
    figure6_art,
)


def test_figure1_susan(benchmark, campaign_spec, show):
    figure = benchmark.pedantic(
        figure1_susan,
        kwargs={"config": campaign_spec, "errors_axis": [0, 20, 60, 150, 400]},
        rounds=1, iterations=1)
    show(figure.to_table())
    on = figure.series_by_label("PSNR (analysis ON) [dB]").values
    off = figure.series_by_label("PSNR (analysis OFF) [dB]").values
    assert on[0] == 100.0
    # At the highest error count, protection keeps PSNR at or above the
    # unprotected value (when unprotected runs complete at all).
    assert off[-1] is None or on[-1] >= off[-1]


def test_figure2_mpeg(benchmark, campaign_spec, show):
    figure = benchmark.pedantic(
        figure2_mpeg,
        kwargs={"config": campaign_spec, "errors_axis": [0, 2, 8, 16]},
        rounds=1, iterations=1)
    show(figure.to_table())
    bad_frames = figure.series_by_label("% bad frames").values
    assert bad_frames[0] == 0.0


def test_figure3_mcf(benchmark, campaign_spec, show):
    figure = benchmark.pedantic(
        figure3_mcf,
        kwargs={"config": campaign_spec, "errors_axis": [0, 1, 5, 20]},
        rounds=1, iterations=1)
    show(figure.to_table())
    optimal = figure.series_by_label("% optimal schedules found").values
    assert optimal[0] == 100.0
    assert optimal[-1] <= optimal[0]


def test_figure4_blowfish(benchmark, campaign_spec, show):
    figure = benchmark.pedantic(
        figure4_blowfish,
        kwargs={"config": campaign_spec, "errors_axis": [0, 2, 10, 40]},
        rounds=1, iterations=1)
    show(figure.to_table())
    bytes_correct = figure.series_by_label("% bytes correct").values
    assert bytes_correct[0] == 100.0
    assert bytes_correct[-1] <= bytes_correct[0]


def test_figure5_gsm(benchmark, campaign_spec, show):
    figure = benchmark.pedantic(
        figure5_gsm,
        kwargs={"config": campaign_spec, "errors_axis": [0, 10, 40]},
        rounds=1, iterations=1)
    show(figure.to_table())
    loss = figure.series_by_label("SNR loss [dB]").values
    assert loss[0] == 0.0


def test_figure6_art(benchmark, campaign_spec, show):
    figure = benchmark.pedantic(
        figure6_art,
        kwargs={"config": campaign_spec, "errors_axis": [0, 1, 2, 4]},
        rounds=1, iterations=1)
    show(figure.to_table())
    recognised = figure.series_by_label("% images recognised").values
    assert recognised[0] == 100.0
