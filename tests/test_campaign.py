"""Tests of live campaigns, outcome aggregation and the experiment harness."""

from dataclasses import replace

import pytest

from repro.apps import create_app
from repro.core import (
    CampaignConfig,
    CampaignResult,
    FidelityResult,
    RunRecord,
    SweepResult,
    format_table,
)
from repro.core.report import FigureData, TableData
from repro.experiments import (
    figure3_mcf,
    live_campaign,
    table1_applications,
    table3_low_reliability_instructions,
)
from repro.service.spec import CampaignSpec
from repro.sim import Outcome, ProtectionMode

PROTECTED = ProtectionMode.PROTECTED


@pytest.fixture(scope="module")
def adpcm():
    return create_app("adpcm", samples=300)


def _row(table, key):
    """The row of ``table`` whose first column is ``key``."""
    return next(row for row in table.rows if row and row[0] == key)


class TestAggregation:
    def _record(self, outcome, score=None, acceptable=False):
        fidelity = None
        if score is not None:
            fidelity = FidelityResult(score=score, acceptable=acceptable)
        return RunRecord(run_index=0, seed=0, mode=ProtectionMode.PROTECTED,
                         errors_requested=1, errors_injected=1, outcome=outcome,
                         executed=100, fidelity=fidelity)

    def test_failure_percentages(self):
        result = CampaignResult(app_name="x", mode=ProtectionMode.PROTECTED,
                                errors_requested=1)
        result.records = [
            self._record(Outcome.COMPLETED, score=90.0, acceptable=True),
            self._record(Outcome.CRASH),
            self._record(Outcome.HANG),
            self._record(Outcome.COMPLETED, score=50.0, acceptable=False),
        ]
        assert result.failure_percent == 50.0
        assert result.crash_percent == 25.0
        assert result.hang_percent == 25.0
        assert result.acceptable_percent == 25.0
        assert result.mean_fidelity == 70.0
        assert result.summary()["failures_pct"] == 50.0

    def test_empty_campaign_is_all_zero(self):
        result = CampaignResult(app_name="x", mode=ProtectionMode.PROTECTED,
                                errors_requested=0)
        assert result.failure_percent == 0.0
        assert result.mean_fidelity is None


class TestLiveCampaign:
    def test_zero_error_campaign_is_perfect(self, adpcm):
        campaign = live_campaign(adpcm, CampaignConfig(runs=3), 0, PROTECTED)
        assert campaign.failure_percent == 0.0
        assert all(record.fidelity is not None and record.fidelity.perfect
                   for record in campaign.records)

    def test_campaign_is_deterministic_for_a_seed(self, adpcm):
        config = CampaignConfig(runs=3, base_seed=42)
        first = live_campaign(adpcm, config, 5, PROTECTED)
        second = live_campaign(adpcm, config, 5, PROTECTED)
        assert [record.outcome for record in first.records] == \
            [record.outcome for record in second.records]
        assert first.fidelity_scores() == second.fidelity_scores()

    def test_errors_are_actually_injected(self, adpcm):
        campaign = live_campaign(adpcm, CampaignConfig(runs=3), 6, PROTECTED)
        assert all(record.errors_injected > 0 for record in campaign.records)

    def test_unprotected_mode_exposes_more_instructions(self, adpcm):
        golden = adpcm.golden(0)
        assert golden.exposed_unprotected > golden.exposed_protected

    def test_protection_preserves_fidelity_better(self, adpcm):
        """The paper's central claim at campaign scale: with control data
        protected, runs complete and keep fidelity; without protection the
        same error count produces catastrophic failures and/or worse output."""
        config = CampaignConfig(runs=6, base_seed=7)
        errors = 30
        protected = live_campaign(adpcm, config, errors, PROTECTED)
        unprotected = live_campaign(adpcm, config, errors,
                                    ProtectionMode.UNPROTECTED)
        assert protected.failure_percent <= unprotected.failure_percent
        protected_quality = protected.acceptable_percent + protected.completed_percent
        unprotected_quality = unprotected.acceptable_percent + unprotected.completed_percent
        assert protected_quality >= unprotected_quality

    def test_sweep_covers_requested_axis(self, adpcm):
        config = CampaignConfig(runs=2)
        sweep = SweepResult(adpcm.name, PROTECTED, [
            live_campaign(adpcm, config, errors, PROTECTED)
            for errors in (0, 2, 4)])
        assert sweep.errors_axis() == [0, 2, 4]
        assert len(sweep.failure_series()) == 3
        assert sweep.cell(2).errors_requested == 2

    def test_crash_runs_score_as_none(self, adpcm):
        """Catastrophic runs carry no fidelity: scoring must not attempt to
        read output buffers from a crashed or hung machine image."""
        golden = adpcm.golden(0)
        crashed = replace(golden.result, outcome=Outcome.CRASH, exit_value=None,
                          fault="numeric fault: synthetic", fault_kind="fault")
        hung = replace(golden.result, outcome=Outcome.HANG, exit_value=None)
        assert adpcm.score_run(crashed, seed=0) is None
        assert adpcm.score_run(hung, seed=0) is None
        completed = adpcm.score_run(golden.result, seed=0)
        assert completed is not None and completed.perfect

    def test_golden_runs_are_memoized_per_workload_seed(self, adpcm):
        golden = adpcm.golden(0)
        live_campaign(adpcm, CampaignConfig(runs=5, base_seed=3), 2, PROTECTED)
        # One workload seed -> exactly one memoized golden run: the
        # campaign reads the application's cache, never re-simulates it.
        assert adpcm.golden(0) is golden
        assert adpcm.golden(0) is adpcm.golden(0)


class TestParallelCampaign:
    """CampaignConfig(parallel=N) must be bit-identical to the serial backend."""

    def test_parallel_records_match_serial(self, adpcm):
        serial = live_campaign(
            adpcm, CampaignConfig(runs=6, base_seed=11), 4, PROTECTED)
        parallel = live_campaign(
            adpcm, CampaignConfig(runs=6, base_seed=11, parallel=2), 4,
            PROTECTED)
        assert parallel.records == serial.records

    def test_parallel_unprotected_matches_serial(self, adpcm):
        serial = live_campaign(
            adpcm, CampaignConfig(runs=4, base_seed=29), 8,
            ProtectionMode.UNPROTECTED)
        parallel = live_campaign(
            adpcm, CampaignConfig(runs=4, base_seed=29, parallel=4), 8,
            ProtectionMode.UNPROTECTED)
        assert parallel.records == serial.records
        assert parallel.failure_percent == serial.failure_percent
        assert parallel.fidelity_scores() == serial.fidelity_scores()

    def test_parallel_fork_engine_matches_serial_decoded(self, adpcm):
        """Workers rebuild checkpoint stores locally; records stay identical."""
        serial = live_campaign(
            adpcm, CampaignConfig(runs=4, base_seed=13, engine="decoded"), 4,
            PROTECTED)
        parallel = live_campaign(
            adpcm, CampaignConfig(runs=4, base_seed=13, parallel=2,
                                  engine="fork"), 4, PROTECTED)
        assert parallel.records == serial.records


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "b"], [[1, 2.5], [30, None]])
        assert "a" in text and "30" in text and "-" in text

    def test_table_data_row_lookup(self):
        table = TableData(title="t", headers=["name", "value"])
        table.add_row(["x", 1])
        assert _row(table, "x") == ["x", 1]
        assert table.column("value") == [1]

    def test_figure_data_rendering(self):
        figure = FigureData(title="fig", x_label="errors", x_values=[0, 1])
        figure.add_series("y", [1.0, 2.0])
        text = figure.to_table()
        assert "fig" in text and "errors" in text and "2.00" in text


class TestExperimentHarness:
    def test_table1_lists_all_applications(self):
        table = table1_applications(CampaignSpec(runs_per_cell=1))
        assert len(table.rows) == 7
        assert "susan" in table.column("Application")

    def test_table3_reports_fractions(self):
        config = CampaignSpec(runs_per_cell=1)
        table = table3_low_reliability_instructions(config, apps=["adpcm", "mcf"])
        fractions = table.column("% low reliability (dynamic)")
        assert all(0.0 < value < 100.0 for value in fractions)
        adpcm_row = _row(table, "adpcm")
        mcf_row = _row(table, "mcf")
        # The paper's qualitative ordering: ADPCM is far more taggable than MCF.
        assert adpcm_row[2] > mcf_row[2]

    def test_figure3_produces_series(self):
        config = CampaignSpec(runs_per_cell=2)
        figure = figure3_mcf(config, errors_axis=[0, 2])
        assert figure.x_values == [0.0, 2.0]
        optimal = figure.series_by_label("% optimal schedules found").values
        assert optimal[0] == 100.0
