"""ANA* rules: slack tables, busy periods, Theorem-1 plans, deadlines."""

import math

from repro.faults.analysis import log_message_success_probability
from repro.verify import (
    check_deadlines,
    check_retransmission_plan,
    check_slack_table,
    check_utilization,
)


class TestSlackTable:
    def test_clean_table(self):
        levels = [
            [0.0, 2.0, 4.0, 4.0],
            [0.0, 1.0, 3.0, 3.5],
        ]
        assert len(check_slack_table(levels)) == 0

    def test_ana201_negative_entry(self):
        report = check_slack_table([[1.0, -0.5]])
        assert "ANA201" in report.rule_ids()
        assert report.by_rule("ANA201")[0].location == "slack_table[0][1]"

    def test_ana202_horizon_drop(self):
        report = check_slack_table([[3.0, 2.0]])
        assert report.rule_ids() == ["ANA202"]

    def test_ana202_lower_level_exceeds_upper(self):
        levels = [
            [1.0, 2.0],
            [1.0, 5.0],  # deeper level cannot have MORE slack
        ]
        report = check_slack_table(levels)
        assert report.rule_ids() == ["ANA202"]
        assert report.by_rule("ANA202")[0].location == "slack_table[1][1]"

    def test_ragged_rows_check_common_prefix_only(self):
        levels = [
            [1.0, 2.0],
            [1.0, 2.0, 3.0],  # extra horizon has no counterpart above
        ]
        # The trailing 3.0 exceeds nothing it can be compared with.
        assert len(check_slack_table(levels)) == 0

    def test_custom_location_prefix(self):
        report = check_slack_table([[-1.0]], location="idle_table")
        assert report.diagnostics[0].location.startswith("idle_table")


class TestUtilization:
    def test_feasible_set(self):
        assert len(check_utilization([(1.0, 10.0), (2.0, 10.0)])) == 0

    def test_ana203_overload(self):
        report = check_utilization([(5.0, 10.0), (6.0, 10.0)])
        assert report.rule_ids() == ["ANA203"]
        assert report.by_rule("ANA203")[0].location == "tasks[1]"

    def test_ana203_reports_first_level_only(self):
        report = check_utilization([(11.0, 10.0), (11.0, 10.0)])
        assert len(report) == 1
        assert report.diagnostics[0].location == "tasks[0]"

    def test_ana203_degenerate_period(self):
        assert check_utilization([(1.0, 0.0)]).rule_ids() == ["ANA203"]
        assert check_utilization([(-1.0, 5.0)]).rule_ids() == ["ANA203"]

    def test_exactly_full_is_flagged(self):
        # U == 1 means the busy-period recurrence never terminates.
        assert check_utilization([(10.0, 10.0)]).has_errors


class TestRetransmissionPlan:
    def test_feasible_plan(self):
        report = check_retransmission_plan(
            failure_probabilities={"a": 1e-4, "b": 1e-5},
            instances={"a": 100.0, "b": 10.0},
            budgets={"a": 2, "b": 1},
            rho=0.99999,
        )
        assert len(report) == 0

    def test_ana204_product_misses_goal(self):
        report = check_retransmission_plan(
            failure_probabilities={"a": 0.2},
            instances={"a": 50.0},
            budgets={"a": 0},
            rho=0.99999,
        )
        assert report.rule_ids() == ["ANA204"]
        assert "misses the goal" in report.diagnostics[0].message

    def test_ana204_bad_rho(self):
        for rho in (0.0, -0.1, 1.5):
            report = check_retransmission_plan({}, {}, {}, rho=rho)
            assert report.rule_ids() == ["ANA204"]
            assert report.diagnostics[0].location == "plan.rho"

    def test_ana204_missing_instance_rate(self):
        report = check_retransmission_plan(
            failure_probabilities={"a": 1e-4},
            instances={},
            budgets={"a": 1},
            rho=0.999,
        )
        assert report.rule_ids() == ["ANA204"]
        assert "instances" in report.diagnostics[0].location

    def test_ana206_budget_out_of_range(self):
        report = check_retransmission_plan(
            failure_probabilities={"a": 1e-4},
            instances={"a": 1.0},
            budgets={"a": 99},
            rho=0.999,
        )
        assert "ANA206" in report.rule_ids()
        report = check_retransmission_plan(
            failure_probabilities={"a": 1e-4},
            instances={"a": 1.0},
            budgets={"a": -1},
            rho=0.999,
        )
        assert "ANA206" in report.rule_ids()

    def test_ana206_budget_past_the_planner_cap(self):
        # The planner buys at most 8 retransmissions per message, so a
        # k_z of 9 cannot come from it and must not pass the check.
        args = dict(failure_probabilities={"a": 1e-4, "b": 1e-4},
                    instances={"a": 1.0, "b": 1.0}, rho=0.999)
        assert not check_retransmission_plan(
            budgets={"a": 8, "b": 1}, **args).has_errors
        report = check_retransmission_plan(budgets={"a": 9, "b": 1}, **args)
        assert report.rule_ids() == ["ANA206"]
        assert report.diagnostics[0].location == "plan.budgets[a]"

    def test_budget_cap_is_configurable(self):
        report = check_retransmission_plan(
            failure_probabilities={"a": 1e-4},
            instances={"a": 1.0},
            budgets={"a": 5},
            rho=0.999,
            max_budget=4,
        )
        assert "ANA206" in report.rule_ids()

    def test_matches_log_space_recurrence(self):
        """The rule recomputes the same product the fault analysis does."""
        plan = {"x": (1e-3, 1, 200.0), "y": (5e-4, 2, 80.0)}
        log_total = sum(
            log_message_success_probability(p, k, u)
            for p, k, u in plan.values()
        )
        rho_pass = math.exp(log_total) * 0.999999
        rho_fail = min(1.0, math.exp(log_total) * 1.000001)
        args = dict(
            failure_probabilities={m: v[0] for m, v in plan.items()},
            instances={m: v[2] for m, v in plan.items()},
            budgets={m: v[1] for m, v in plan.items()},
        )
        assert not check_retransmission_plan(rho=rho_pass, **args).has_errors
        assert check_retransmission_plan(rho=rho_fail, **args).has_errors


class TestDeadlines:
    def test_constrained_deadlines_pass(self):
        messages = [("a", 5.0, 10.0), ("b", 10.0, 10.0)]
        assert len(check_deadlines(messages)) == 0

    def test_ana205_arbitrary_deadline(self):
        report = check_deadlines([("late", 12.0, 10.0)])
        assert report.rule_ids() == ["ANA205"]
        assert report.diagnostics[0].location == "workload.late"
