"""FRC* rules: one golden pass plus one broken config per rule."""

import dataclasses

import pytest

from repro.experiments.figures import case_study_params
from repro.flexray.params import (
    FlexRayParams,
    paper_dynamic_preset,
    paper_static_preset,
)
from repro.verify.config_checks import as_raw_config, check_params


def raw(**overrides):
    """A sound baseline raw config, selectively broken per test."""
    base = as_raw_config(FlexRayParams())
    base.update(overrides)
    return base


class TestGoldenConfigs:
    @pytest.mark.parametrize("params", [
        FlexRayParams(),
        paper_dynamic_preset(25),
        paper_dynamic_preset(100),
        case_study_params("bbw", minislots=50),
        case_study_params("acc", minislots=50),
    ])
    def test_presets_are_clean(self, params):
        report = check_params(params)
        assert not report.has_errors
        assert report.rule_ids() == []

    @pytest.mark.parametrize("slots", [80, 120])
    def test_static_presets_warn_only_about_zero_nit(self, slots):
        # The static-segment study fills the cycle exactly, so the only
        # finding is the informational zero-NIT warning.
        report = check_params(paper_static_preset(slots))
        assert not report.has_errors
        assert report.rule_ids() == ["FRC003"]

    def test_raw_mapping_round_trip_is_clean(self):
        report = check_params(raw())
        assert len(report) == 0


class TestBrokenConfigs:
    def test_frc001_nit_mismatch(self):
        # Default geometry derives NIT = 5000 - 3200 - 800 = 1000 MT.
        report = check_params(raw(nit_mt=999))
        assert report.rule_ids() == ["FRC001"]
        assert report.by_rule("FRC001")[0].location == "params.nit_mt"

    def test_frc002_segment_overflow(self):
        report = check_params(raw(gd_cycle_mt=1000))
        assert "FRC002" in report.rule_ids()

    def test_frc003_zero_nit_warns(self):
        report = check_params(raw(gd_cycle_mt=4000, nit_mt=0))
        assert report.rule_ids() == ["FRC003"]
        assert not report.has_errors
        assert report.warnings[0].rule_id == "FRC003"

    def test_frc004_slot_count_out_of_range(self):
        assert check_params(raw(g_number_of_static_slots=1)) \
            .rule_ids() == ["FRC004"]
        assert "FRC004" in check_params(
            raw(g_number_of_static_slots=2048)).rule_ids()
        assert "FRC004" in check_params(
            raw(g_number_of_minislots=8000, gd_cycle_mt=100000)).rule_ids()

    def test_frc005_declared_segment_mismatch(self):
        report = check_params(raw(static_segment_mt=3000))
        assert report.rule_ids() == ["FRC005"]
        report = check_params(raw(dynamic_segment_mt=801))
        assert report.rule_ids() == ["FRC005"]

    def test_frc006_slot_too_short_for_a_frame(self):
        # 2 MT slot minus 2x1 MT action points carries nothing.
        report = check_params(raw(gd_static_slot_mt=2,
                                  g_number_of_static_slots=10))
        assert "FRC006" in report.rule_ids()

    def test_frc007_latest_tx_outside_dynamic_segment(self):
        report = check_params(raw(p_latest_tx_minislot=101))
        assert report.rule_ids() == ["FRC007"]

    def test_frc008_invalid_channel_count(self):
        report = check_params(raw(channel_count=3))
        assert report.rule_ids() == ["FRC008"]

    def test_frc009_nonpositive_parameter_short_circuits(self):
        report = check_params(raw(gd_cycle_mt=0))
        # Positivity is reported alone: the dependent arithmetic rules
        # must not pile on nonsense findings.
        assert report.rule_ids() == ["FRC009"]

    def test_diagnostics_carry_fix_hints(self):
        report = check_params(raw(channel_count=3))
        diagnostic = report.diagnostics[0]
        assert diagnostic.fix_hint
        assert "FRC008" in diagnostic.format()
        assert diagnostic.to_row()["rule"] == "FRC008"


class TestRawConfigHelper:
    def test_params_normalize_to_field_dict(self):
        params = FlexRayParams()
        raw_config = as_raw_config(params)
        fields = {f.name for f in dataclasses.fields(FlexRayParams)}
        assert set(raw_config) == fields

    def test_mapping_is_copied(self):
        source = {"gd_cycle_mt": 5000}
        raw_config = as_raw_config(source)
        raw_config["gd_cycle_mt"] = 1
        assert source["gd_cycle_mt"] == 5000
