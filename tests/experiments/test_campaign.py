"""Tests for Monte-Carlo campaigns."""

import math
from types import SimpleNamespace

import pytest

from repro.experiments.campaign import (
    _METRIC_EXTRACTORS,
    CAMPAIGN_METRICS,
    _summarize,
    _t_critical,
    MetricSummary,
    compare_campaigns,
    run_campaign,
)

#: Reference two-sided 95 % Student-t critical values, df = 1..29
#: (standard t-table, 3-4 significant digits).
_T_REFERENCE = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045,
}


class TestTCritical:
    def test_matches_reference_table_df_1_to_29(self):
        for df, expected in _T_REFERENCE.items():
            assert _t_critical(df) == pytest.approx(expected, abs=5e-4), df

    def test_df_11_is_conservative(self):
        # The old table skipped df 11..14 and returned t(15) = 2.131 --
        # an anti-conservative CI.  The real value is larger.
        assert _t_critical(11) >= 2.201

    def test_monotonically_non_increasing(self):
        values = [_t_critical(df) for df in range(1, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_normal_approximation_only_from_df_30(self):
        assert _t_critical(29) > 1.96
        for df in (30, 31, 60, 1000):
            assert _t_critical(df) == 1.96

    def test_nonpositive_df_is_infinite(self):
        assert _t_critical(0) == float("inf")
        assert _t_critical(-3) == float("inf")

    def test_always_at_least_true_critical_value(self):
        # Round-down semantics: the returned value must never undershoot
        # the tabulated value at the same df (conservative CIs).
        for df in range(1, 30):
            assert _t_critical(df) >= _T_REFERENCE[df] - 5e-4


class TestDeliveredFractionExtractor:
    @staticmethod
    def _stub(produced, delivered):
        return SimpleNamespace(metrics=SimpleNamespace(
            produced_instances=produced, delivered_instances=delivered))

    def test_zero_produced_reports_nan_not_zero(self):
        value = _METRIC_EXTRACTORS["delivered_fraction"](self._stub(0, 0))
        assert math.isnan(value)

    def test_normal_runs_unchanged(self):
        value = _METRIC_EXTRACTORS["delivered_fraction"](self._stub(10, 7))
        assert value == pytest.approx(0.7)

    def test_nan_samples_excluded_from_summary(self):
        summary = _summarize("delivered_fraction",
                             [1.0, float("nan"), 0.5, float("nan")])
        assert summary.samples == 2
        assert summary.mean == pytest.approx(0.75)

    def test_all_nan_yields_skipped_summary(self):
        summary = _summarize("delivered_fraction",
                             [float("nan"), float("nan")])
        assert summary.samples == 0
        assert math.isnan(summary.mean)


class TestMetricSummary:
    def test_single_sample(self):
        summary = MetricSummary.of("x", [3.0])
        assert summary.mean == 3.0
        assert summary.stdev == 0.0
        assert summary.ci_low == summary.ci_high == 3.0

    def test_ci_contains_mean(self):
        summary = MetricSummary.of("x", [1.0, 2.0, 3.0, 4.0])
        assert summary.ci_low <= summary.mean <= summary.ci_high
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_ci_narrows_with_samples(self):
        few = MetricSummary.of("x", [1.0, 2.0, 3.0])
        many = MetricSummary.of("x", [1.0, 2.0, 3.0] * 20)
        assert (many.ci_high - many.ci_low) < (few.ci_high - few.ci_low)

    def test_overlap_detection(self):
        low = MetricSummary.of("x", [1.0, 1.1, 0.9, 1.05])
        high = MetricSummary.of("x", [9.0, 9.1, 8.9, 9.05])
        mid = MetricSummary.of("x", [1.0, 9.0, 5.0, 4.0])
        assert not low.overlaps(high)
        assert low.overlaps(mid)
        assert mid.overlaps(high)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MetricSummary.of("x", [])


class TestRunCampaign:
    def _campaign(self, small_params, workload, scheduler, seeds):
        return run_campaign(
            scheduler,
            seeds=seeds,
            params=small_params,
            periodic=workload.periodic(),
            aperiodic=workload.aperiodic(),
            ber=1e-4,
            duration_ms=20.0,
        )

    def test_runs_every_seed(self, small_params, tiny_workload):
        campaign = self._campaign(small_params, tiny_workload,
                                  "coefficient", [1, 2, 3])
        assert len(campaign.results) == 3
        assert campaign.summary("delivered_fraction").samples == 3

    def test_seeds_produce_variation(self, small_params, tiny_workload):
        campaign = self._campaign(small_params, tiny_workload,
                                  "coefficient", list(range(6)))
        corrupted = [r.metrics.corrupted_attempts
                     for r in campaign.results]
        assert len(set(corrupted)) > 1  # fault patterns really differ

    def test_every_metric_summarized(self, small_params, tiny_workload):
        campaign = run_campaign(
            "coefficient", seeds=[1, 2],
            params=small_params, periodic=tiny_workload.periodic(),
            ber=0.0, duration_ms=10.0,
        )
        assert list(campaign.summaries) == list(CAMPAIGN_METRICS)

    def test_empty_seeds_rejected(self, small_params, tiny_workload):
        with pytest.raises(ValueError):
            run_campaign("coefficient", seeds=[],
                         params=small_params,
                         periodic=tiny_workload.periodic(),
                         ber=0.0, duration_ms=10.0)

    def test_table_row(self, small_params, tiny_workload):
        campaign = self._campaign(small_params, tiny_workload,
                                  "coefficient", [1, 2])
        row = campaign.table_row()
        assert row["scheduler"] == "coefficient"
        assert "deadline_miss_ratio_ci" in row


class TestCompareCampaigns:
    def test_comparison_fields(self, small_params, tiny_workload):
        a = run_campaign("coefficient", seeds=[1, 2, 3],
                         params=small_params,
                         periodic=tiny_workload.periodic(),
                         aperiodic=tiny_workload.aperiodic(),
                         ber=1e-4, duration_ms=20.0)
        b = run_campaign("fspec", seeds=[1, 2, 3],
                         params=small_params,
                         periodic=tiny_workload.periodic(),
                         aperiodic=tiny_workload.aperiodic(),
                         ber=1e-4, duration_ms=20.0)
        comparison = compare_campaigns(a, b, "dynamic_latency_ms")
        assert comparison["metric"] == "dynamic_latency_ms"
        assert "difference" in comparison
        assert isinstance(comparison["separated"], bool)
