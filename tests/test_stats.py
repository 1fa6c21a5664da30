"""Unit and property tests of the statistical confidence subsystem.

The quantile functions are checked against textbook table values (the
runtime is stdlib-only, so the implementations in
``repro.core.stats`` are from-scratch); the Wilson interval against a
hand-computed reference; and the interval properties the adaptive sweep
relies on — bounds, point-estimate containment, monotone shrinkage —
with hypothesis.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import CampaignResult, RunRecord, StoppingRule
from repro.core.fidelity import FidelityResult
from repro.core.stats import (
    ConfidenceInterval,
    average_ranks,
    normal_quantile,
    spearman_rho,
    student_t_quantile,
    t_interval,
    wilson_interval,
)
from repro.sim import Outcome, ProtectionMode


def make_record(run_index=0, outcome=Outcome.COMPLETED, score=1.0,
                acceptable=True, detail=None):
    """A hand-built RunRecord for aggregation tests (no simulation)."""
    fidelity = None
    if outcome == Outcome.COMPLETED:
        fidelity = FidelityResult(score=score, acceptable=acceptable,
                                  perfect=score == 1.0,
                                  detail=detail or {})
    return RunRecord(
        run_index=run_index, seed=run_index, mode=ProtectionMode.PROTECTED,
        errors_requested=1, errors_injected=1, outcome=outcome,
        executed=100, fidelity=fidelity,
    )


def make_cell(*records):
    cell = CampaignResult(app_name="test", mode=ProtectionMode.PROTECTED,
                          errors_requested=1)
    cell.records.extend(records)
    return cell


class TestNormalQuantile:
    # Reference values from standard normal tables.
    @pytest.mark.parametrize("p, z", [
        (0.975, 1.959963984540054),
        (0.995, 2.5758293035489004),
        (0.9, 1.2815515655446004),
        (0.5, 0.0),
        (0.025, -1.959963984540054),
        (0.001, -3.090232306167813),
    ])
    def test_table_values(self, p, z):
        assert normal_quantile(p) == pytest.approx(z, abs=1e-12)

    def test_rejects_degenerate_probabilities(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="normal_quantile"):
                normal_quantile(p)


class TestStudentTQuantile:
    # Reference values from standard t tables (two-sided 95% unless noted).
    @pytest.mark.parametrize("p, df, t", [
        (0.975, 1, 12.706204736432095),
        (0.975, 4, 2.7764451051977987),
        (0.975, 9, 2.2621571627409915),
        (0.975, 29, 2.045229642132703),
        (0.95, 1, 6.313751514675043),
        (0.95, 10, 1.8124611228107335),
        (0.995, 9, 3.2498355415921548),
    ])
    def test_table_values(self, p, df, t):
        assert student_t_quantile(p, df) == pytest.approx(t, rel=1e-9)

    def test_symmetry_and_median(self):
        assert student_t_quantile(0.5, 7) == 0.0
        assert student_t_quantile(0.025, 9) == pytest.approx(
            -student_t_quantile(0.975, 9), rel=1e-12)

    def test_approaches_the_normal_quantile_for_large_df(self):
        assert student_t_quantile(0.975, 100000) == pytest.approx(
            normal_quantile(0.975), abs=1e-4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="df >= 1"):
            student_t_quantile(0.975, 0)
        with pytest.raises(ValueError, match="0 < p < 1"):
            student_t_quantile(1.0, 5)


class TestWilsonInterval:
    def test_hand_computed_reference(self):
        # 3 successes in 10 runs at 95%: the worked example of the Wilson
        # interval (z = 1.9599640): center = (0.3 + z^2/20) / (1 + z^2/10),
        # margin = z * sqrt(0.3*0.7/10 + z^2/400) / (1 + z^2/10)
        # => (0.10779, 0.60322).
        interval = wilson_interval(3, 10)
        assert interval.point == pytest.approx(30.0)
        assert interval.low == pytest.approx(10.779126740630108, rel=1e-9)
        assert interval.high == pytest.approx(60.322185253885465, rel=1e-9)
        assert interval.confidence == 0.95

    def test_zero_and_full_counts_stay_in_bounds(self):
        zero = wilson_interval(0, 12)
        full = wilson_interval(12, 12)
        assert zero.point == 0.0 and zero.low == 0.0 and zero.high > 0.0
        assert full.point == 100.0 and full.high == 100.0 and full.low < 100.0
        # The two are mirror images.
        assert zero.high == pytest.approx(100.0 - full.low, rel=1e-12)

    def test_half_width_and_str(self):
        interval = ConfidenceInterval(point=50.0, low=40.0, high=60.0)
        assert interval.half_width == 10.0
        assert str(interval) == "50.00 ±10.00"
        assert json.dumps(interval.as_json())  # JSON-safe

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="total >= 1"):
            wilson_interval(0, 0)
        with pytest.raises(ValueError, match="successes"):
            wilson_interval(5, 4)
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(1, 4, confidence=1.0)


class TestWilsonProperties:
    counts = st.integers(min_value=1, max_value=500).flatmap(
        lambda n: st.tuples(st.integers(min_value=0, max_value=n), st.just(n)))

    @given(counts)
    def test_bounds_and_containment(self, count_total):
        successes, total = count_total
        interval = wilson_interval(successes, total)
        assert 0.0 <= interval.low <= interval.high <= 100.0
        # The interval always contains the point estimate.
        assert interval.low <= interval.point <= interval.high

    @given(counts)
    def test_half_width_shrinks_monotonically_with_n(self, count_total):
        successes, total = count_total
        small = wilson_interval(successes, total)
        large = wilson_interval(2 * successes, 2 * total)
        assert large.point == pytest.approx(small.point)
        assert large.half_width < small.half_width

    @given(counts)
    def test_higher_confidence_widens(self, count_total):
        successes, total = count_total
        assert (wilson_interval(successes, total, confidence=0.99).half_width
                > wilson_interval(successes, total,
                                  confidence=0.90).half_width)


class TestTInterval:
    def test_hand_computed_reference(self):
        # mean 2.5, sample stdev sqrt(5/3), se = sqrt(5/3)/2 = 0.6454972,
        # t(0.975, df=3) = 3.1824463 => margin 3.1824463 * 0.6454972.
        interval = t_interval([1.0, 2.0, 3.0, 4.0])
        assert interval.point == pytest.approx(2.5)
        assert interval.half_width == pytest.approx(2.0542602567605186,
                                                    rel=1e-9)

    def test_fewer_than_two_values_has_no_interval(self):
        assert t_interval([]) is None
        assert t_interval([7.5]) is None

    def test_constant_values_give_zero_width(self):
        interval = t_interval([3.0, 3.0, 3.0])
        assert interval.point == 3.0
        assert interval.half_width == 0.0

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError, match="confidence"):
            t_interval([1.0, 2.0], confidence=0.0)


class TestStoppingRule:
    def test_validation(self):
        with pytest.raises(ValueError, match="ci_width"):
            StoppingRule(ci_width=0.0)
        with pytest.raises(ValueError, match="floor"):
            StoppingRule(floor=0)
        with pytest.raises(ValueError, match="cap"):
            StoppingRule(floor=10, cap=5)
        with pytest.raises(ValueError, match="confidence"):
            StoppingRule(confidence=1.0)

    def test_floor_blocks_early_stops(self):
        # 0/2 has a tight-looking interval but the floor holds it open.
        rule = StoppingRule(ci_width=80.0, floor=4, cap=8)
        assert not rule.satisfied(2, 0, 2)
        assert rule.satisfied(4, 0, 4)

    def test_cap_stops_unconverged_cells(self):
        rule = StoppingRule(ci_width=0.001, floor=2, cap=6)
        assert not rule.satisfied(5, 2, 3)   # hopelessly wide
        assert rule.satisfied(6, 3, 3)       # but the cap ends it

    def test_both_rates_must_converge(self):
        rule = StoppingRule(ci_width=14.0, floor=4, cap=100)
        # failures 0/16 is narrow (±~11pp), acceptable 8/16 is wide (±~22pp).
        assert not rule.satisfied(16, 0, 8)
        assert rule.satisfied(16, 0, 16)

    def test_satisfied_by_campaign_result(self):
        rule = StoppingRule(ci_width=30.0, floor=2, cap=100)
        cell = make_cell(make_record(0), make_record(1),
                         make_record(2), make_record(3))
        assert rule.satisfied_by(cell)

    def test_meta_round_trip(self):
        rule = StoppingRule(ci_width=1.5, floor=12, cap=200, confidence=0.9)
        assert StoppingRule.from_meta(rule.as_meta()) == rule


class TestAggregationEdgeCases:
    """Empty and single-run campaign cells (ISSUE 5 satellite)."""

    def test_empty_cell_rates_and_means(self):
        cell = make_cell()
        assert cell.total_runs == 0
        assert cell.failure_percent == 0.0
        assert cell.acceptable_percent == 0.0
        assert cell.mean_fidelity is None
        assert cell.fidelity_scores() == []
        assert cell.detail_mean("anything") is None
        assert cell.failure_ci() is None
        assert cell.acceptable_ci() is None
        assert cell.mean_fidelity_ci() is None

    def test_empty_cell_summary_is_strict_json(self):
        summary = make_cell().summary()
        assert summary["mean_fidelity"] is None
        assert summary["failures_pct_moe"] is None
        # allow_nan=False is strict JSON: float("nan") would raise here,
        # and its old serialisation ("NaN") is rejected by strict parsers.
        text = json.dumps(summary, allow_nan=False)
        assert json.loads(text)["runs"] == 0.0

    def test_crash_only_cell_summary_is_strict_json(self):
        cell = make_cell(make_record(0, outcome=Outcome.CRASH),
                         make_record(1, outcome=Outcome.HANG))
        summary = cell.summary()
        assert summary["failures_pct"] == 100.0
        assert summary["mean_fidelity"] is None  # no completed runs
        json.dumps(summary, allow_nan=False)

    def test_single_run_cell(self):
        cell = make_cell(make_record(0, score=0.75, acceptable=True))
        assert cell.failure_percent == 0.0
        assert cell.mean_fidelity == 0.75
        interval = cell.failure_ci()
        assert interval is not None and interval.point == 0.0
        assert 0.0 <= interval.low <= interval.high <= 100.0
        # One sample: rate CIs exist, the mean-fidelity t interval cannot.
        assert cell.mean_fidelity_ci() is None
        json.dumps(cell.summary(), allow_nan=False)

    def test_detail_mean_tolerates_missing_keys(self):
        cell = make_cell(
            make_record(0, detail={"snr": 10.0}),
            make_record(1, detail={}),                 # key absent
            make_record(2, outcome=Outcome.CRASH),     # no fidelity at all
            make_record(3, detail={"snr": 20.0}),
        )
        assert cell.detail_mean("snr") == 15.0
        assert cell.detail_mean("absent") is None

    def test_cell_ci_matches_stats_layer(self):
        cell = make_cell(
            make_record(0, outcome=Outcome.CRASH),
            make_record(1, outcome=Outcome.CRASH),
            make_record(2, outcome=Outcome.CRASH),
            *[make_record(index) for index in range(3, 10)],
        )
        assert cell.failure_percent == 30.0
        assert cell.failure_ci() == wilson_interval(3, 10)
        assert cell.acceptable_ci() == wilson_interval(7, 10)


class TestAverageRanks:
    def test_distinct_values(self):
        assert average_ranks([30.0, 10.0, 20.0]) == [3.0, 1.0, 2.0]

    def test_ties_get_mid_ranks(self):
        assert average_ranks([1.0, 1.0, 2.0]) == [1.5, 1.5, 3.0]
        assert average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]

    def test_empty(self):
        assert average_ranks([]) == []


class TestSpearmanRho:
    def test_perfect_agreement(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_perfect_reversal(self):
        assert spearman_rho([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0

    def test_textbook_value(self):
        # Ranks (1..5) vs (1,3,2,5,4): d^2 sum = 4, rho = 1 - 24/120 = 0.8.
        assert spearman_rho([1, 2, 3, 4, 5],
                            [1, 3, 2, 5, 4]) == pytest.approx(0.8)

    def test_monotone_transform_invariance(self):
        xs = [0.5, 1.5, 7.0, 9.0]
        assert spearman_rho(xs, [x ** 3 for x in xs]) == 1.0

    def test_degenerate_inputs_are_none(self):
        assert spearman_rho([], []) is None
        assert spearman_rho([1.0], [2.0]) is None
        assert spearman_rho([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            spearman_rho([1.0, 2.0], [1.0])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                    max_size=20))
    def test_self_correlation_is_one_or_none(self, values):
        rho = spearman_rho(values, values)
        assert rho is None or rho == pytest.approx(1.0)

    @given(st.lists(st.tuples(st.floats(min_value=-1e6, max_value=1e6),
                              st.floats(min_value=-1e6, max_value=1e6)),
                    min_size=2, max_size=20))
    def test_bounded_and_symmetric(self, pairs):
        xs = [pair[0] for pair in pairs]
        ys = [pair[1] for pair in pairs]
        rho = spearman_rho(xs, ys)
        if rho is not None:
            assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9
            assert spearman_rho(ys, xs) == pytest.approx(rho)
