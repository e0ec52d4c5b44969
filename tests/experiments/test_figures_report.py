"""Tests for the figure generators and the report renderer.

The heavy sweeps are exercised with reduced settings; the full-size runs
live in the benchmark harness.
"""

import pytest

from repro.experiments import figures
from repro.experiments.report import generate_report, render_rows


class TestTables:
    def test_table2_shape(self):
        rows = figures.table2_bbw_rows()
        assert len(rows) == 20
        assert rows[0]["size_bits"] == 1292

    def test_table3_shape(self):
        rows = figures.table3_acc_rows()
        assert len(rows) == 20


class TestWorkloadBuilders:
    def test_dynamic_study_periodic_fits_preset(self):
        from repro.flexray.params import paper_dynamic_preset
        params = paper_dynamic_preset(50)
        signals = figures.dynamic_study_periodic()
        assert all(s.size_bits <= params.static_slot_capacity_bits
                   for s in signals)

    def test_dynamic_study_aperiodic_fits_25_minislots(self):
        from repro.flexray.params import paper_dynamic_preset
        params = paper_dynamic_preset(25)
        signals = figures.dynamic_study_aperiodic()
        for signal in signals:
            assert params.minislots_for_bits(signal.size_bits) <= 25

    @pytest.mark.parametrize("workload", ["bbw", "acc"])
    def test_case_study_params_feasible(self, workload):
        from repro.protocol.schedule import (
            ChannelStrategy, build_dual_schedule)
        from repro.packing.frame_packing import pack_signals
        params = figures.case_study_params(workload, minislots=50)
        signals = figures._case_study_signals(workload)
        packing = pack_signals(signals, params)
        for strategy in (ChannelStrategy.DISTRIBUTE,
                         ChannelStrategy.DUPLICATE_BEST_EFFORT):
            build_dual_schedule(packing.static_frames(), params, strategy)

    def test_case_study_unknown_rejected(self):
        with pytest.raises(ValueError):
            figures.case_study_params("nope")

    def test_ber_goal_pairing(self):
        assert figures.BER_RELIABILITY_PAIRING[1e-7] == pytest.approx(
            1 - 1e-4)
        assert figures.BER_RELIABILITY_PAIRING[1e-9] == pytest.approx(
            1 - 1e-12)
        assert figures._goal_for(5e-6) == pytest.approx(1 - 1e-6)


class TestFigureGenerators:
    def test_fig3_rows_complete(self):
        rows = figures.fig3_bandwidth_utilization(
            minislot_options=(50,), duration_ms=100.0)
        assert len(rows) == 2
        schedulers = {r["scheduler"] for r in rows}
        assert schedulers == {"coefficient", "fspec"}
        for row in rows:
            assert 0.0 <= row["bandwidth_utilization"] <= 1.0

    def test_fig5_rows_complete(self):
        rows = figures.fig5_deadline_miss_ratio(
            minislot_options=(50,), bers=(1e-7,), duration_ms=100.0)
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row["deadline_miss_ratio"] <= 1.0

    def test_fig4_rows_complete(self):
        rows = figures.fig4_transmission_latency(
            minislot_options=(50,), bers=(1e-7,), duration_ms=100.0)
        # 1 synthetic config + 2 case studies, x 2 schedulers.
        assert len(rows) == 6

    def test_fig1_rows_complete(self):
        rows = figures.fig1_2_running_time(
            ber=1e-7, instance_limits=(3,), synthetic_counts=(5,),
            static_slot_options=(80,))
        # 2 case studies x 1 limit + 1 synthetic x 1 slots, x 2 scheds.
        assert len(rows) == 6
        for row in rows:
            assert row["running_time_ms"] > 0


class TestReport:
    def test_render_rows_markdown(self):
        text = render_rows([{"a": 1, "b": 2.5}], "My title", note="note")
        assert "### My title" in text
        assert "| a | b |" in text
        assert "| 1 | 2.5000 |" in text
        assert "*Paper: note*" in text

    def test_render_empty(self):
        assert "(no rows)" in render_rows([], "Empty")

    def test_generate_report_fast_path(self):
        report = generate_report(duration_ms=60.0,
                                 include_running_time=False)
        assert "# CoEfficient reproduction report" in report
        assert "Table II" in report
        assert "Figure 3" in report
        assert "Figure 5" in report
        assert "Figure 1" not in report  # running time skipped
