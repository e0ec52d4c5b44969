"""End-to-end verifier: golden experiments, composite checks, errors."""

import math

import pytest

from repro.core.retransmission import plan_retransmissions
from repro.experiments.figures import case_study_params
from repro.flexray.params import FlexRayParams, paper_dynamic_preset
from repro.verify.analysis_checks import (
    check_deadlines,
    check_retransmission_plan,
    check_slack_table,
    check_utilization,
)
from repro.verify.config_checks import check_params
from repro.verify.diagnostics import Report
from repro.verify.verifier import ConfigurationError, verify_experiment
from repro.workloads.acc import acc_signals
from repro.workloads.bbw import bbw_signals
from repro.workloads.sae import sae_aperiodic_signals
from repro.workloads.synthetic import synthetic_signals


class TestGoldenExperiments:
    """The bundled workloads, paired with their evaluation clusters,
    must verify clean -- this is the same gate `repro check` runs in
    CI."""

    def test_bbw_case_study(self):
        report = verify_experiment(
            params=case_study_params("bbw", minislots=50),
            periodic=bbw_signals(),
        )
        assert len(report) == 0

    def test_acc_case_study(self):
        report = verify_experiment(
            params=case_study_params("acc", minislots=50),
            periodic=acc_signals(),
        )
        assert len(report) == 0

    def test_sae_aperiodic_study(self):
        report = verify_experiment(
            params=paper_dynamic_preset(100),
            aperiodic=sae_aperiodic_signals(count=30),
        )
        assert len(report) == 0

    def test_synthetic_dynamic_study(self):
        report = verify_experiment(
            params=paper_dynamic_preset(100),
            periodic=synthetic_signals(20, seed=42, max_size_bits=216),
        )
        assert len(report) == 0


class TestBrokenExperiments:
    def test_ana205_no_workload(self):
        report = verify_experiment(params=paper_dynamic_preset(100))
        assert report.rule_ids() == ["ANA205"]
        assert report.has_errors

    def test_frs107_workload_does_not_fit_cluster(self):
        # The BBW set needs the case-study cluster; on the 100-minislot
        # dynamic preset its frames cannot be packed into a schedule.
        report = verify_experiment(
            params=paper_dynamic_preset(100),
            periodic=bbw_signals(),
        )
        assert "FRS107" in report.rule_ids()

    def test_ana204_unreachable_reliability_goal(self):
        report = verify_experiment(
            params=case_study_params("bbw", minislots=50),
            periodic=bbw_signals(),
            reliability_goal=1.0,
        )
        assert report.has_errors
        assert "ANA204" in report.rule_ids()
        # The planner also records its own infeasibility as a warning.
        assert "ANA207" in report.rule_ids()

    def test_missed_goal_is_reported_once(self):
        """ANA204 proves the Theorem-1 product; MDL404 keeps only the
        fundability clip, so one plan does not miss the goal twice."""
        report = verify_experiment(
            params=case_study_params("bbw", minislots=50),
            periodic=bbw_signals(),
            reliability_goal=1.0,
        )
        product = [d for d in report.errors
                   if d.location in ("plan", "round.theorem1")]
        assert [d.rule_id for d in product] == ["ANA204"]
        # The fundability clause still runs: bbw's k=8 budgets clip to
        # what the idle slots can fund.
        capacity = [d for d in report.errors if d.rule_id == "MDL404"]
        assert [d.location for d in capacity] == ["round.theorem1.capacity"]

    def test_geometry_errors_short_circuit_schedule_checks(self):
        # Segments overflow the 100 MT cycle: the verifier must report
        # the geometry error and stop, not chase it into the builders.
        bad = dict(
            gd_macrotick_us=1.0, gd_cycle_mt=100, gd_static_slot_mt=40,
            g_number_of_static_slots=80, gd_minislot_mt=8,
            g_number_of_minislots=100, bit_rate_mbps=10.0,
        )
        report = verify_experiment(params=bad, periodic=bbw_signals())
        assert report.has_errors
        assert any(rule.startswith("FRC") for rule in report.rule_ids())
        assert "FRS107" not in report.rule_ids()


class TestVerifyConfiguration:
    """The rule groups verify artifacts a caller already has."""

    def test_composite_report_merges_groups(self):
        report = Report()
        report.merge(check_params({"gd_cycle_mt": 0}))
        report.merge(check_deadlines([("late", 20.0, 10.0)]))
        report.merge(check_utilization([(11.0, 10.0)]))
        report.merge(check_slack_table([[-1.0]]))
        assert set(report.rule_ids()) == {
            "FRC009", "ANA205", "ANA203", "ANA201",
        }

    def test_retransmission_plan_object_carries_its_goal(self):
        failure = {"a": 1e-4}
        instances = {"a": 100.0}
        plan = plan_retransmissions(failure, instances, rho=0.9999)
        assert plan.feasible
        report = check_retransmission_plan(
            failure, instances, plan.budgets,
            math.exp(plan.goal_log_probability))
        assert len(report) == 0

    def test_ana207_infeasible_planner_output(self):
        """The verifier reports the planner's own infeasibility as a
        warning next to ANA204's proof that the goal is missed."""
        report = verify_experiment(
            params=case_study_params("bbw", minislots=50),
            periodic=bbw_signals(),
            ber=1e-3,
            reliability_goal=1.0 - 1e-12,
        )
        assert "ANA207" in report.rule_ids()
        assert "ANA204" in report.rule_ids()
        warning_rules = {d.rule_id for d in report.warnings}
        assert "ANA207" in warning_rules


class TestConfigurationError:
    def test_carries_the_report(self):
        report = verify_experiment(params=FlexRayParams())
        error = ConfigurationError(report)
        assert error.report is report
        assert "ANA205" in str(error)

    def test_is_a_value_error(self):
        report = verify_experiment(params=FlexRayParams())
        assert isinstance(ConfigurationError(report), ValueError)


class TestTheorem1Wiring:
    def test_reported_goal_matches_log_space_math(self):
        """verify_experiment's plan check and the planner agree on the
        goal encoding (log(rho), not 1-gamma approximations)."""
        failure = {"a": 1e-3}
        instances = {"a": 10.0}
        plan = plan_retransmissions(failure, instances, rho=0.999)
        assert plan.goal_log_probability == pytest.approx(math.log(0.999))
