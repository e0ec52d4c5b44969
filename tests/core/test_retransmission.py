"""Unit tests for differentiated retransmission planning."""


import pytest

from repro.core.retransmission import (
    derive_theorem1_plan,
    dynamic_retransmission_capacity,
    plan_log_probability,
    plan_retransmissions,
    uniform_retransmission_plan,
)
from repro.faults.analysis import set_success_probability
from repro.packing.frame_packing import pack_signals
from repro.protocol.backend import get_backend
from repro.verify.analysis_checks import check_retransmission_plan
from repro.workloads import bundled_periodic


def _derived(backend, workload, rho, uniform=False):
    params = get_backend(backend).workload_params(workload)
    packing = pack_signals(bundled_periodic(workload, 20, 42), params)
    return derive_theorem1_plan(packing, params, 1e-7, rho, 1000.0,
                                uniform=uniform), params


class TestPlanRetransmissions:
    def test_trivial_goal_needs_nothing(self):
        plan = plan_retransmissions({"a": 0.001}, {"a": 10.0}, rho=0.9)
        assert plan.feasible
        assert plan.budget_for("a") == 0
        assert plan.selected_messages() == {}

    def test_goal_met_exactly_verifiable(self):
        failure = {"a": 0.01, "b": 0.005}
        instances = {"a": 100.0, "b": 50.0}
        rho = 0.9999
        plan = plan_retransmissions(failure, instances, rho)
        assert plan.feasible
        achieved = set_success_probability(failure, plan.budgets, instances)
        assert achieved >= rho

    def test_differentiation_by_failure_probability(self):
        failure = {"fragile": 0.05, "robust": 1e-9}
        instances = {"fragile": 100.0, "robust": 100.0}
        plan = plan_retransmissions(failure, instances, rho=0.9999)
        assert plan.budget_for("fragile") > plan.budget_for("robust")
        assert plan.budget_for("robust") == 0

    def test_minimality_no_overshoot(self):
        # Removing any single retransmission must break the goal.
        failure = {"a": 0.02, "b": 0.03, "c": 0.01}
        instances = {m: 50.0 for m in failure}
        rho = 0.99999
        plan = plan_retransmissions(failure, instances, rho)
        assert plan.feasible
        for message, budget in plan.selected_messages().items():
            reduced = dict(plan.budgets)
            reduced[message] = budget - 1
            achieved = set_success_probability(failure, reduced, instances)
            assert achieved < rho, (
                f"removing one retry of {message} still meets the goal: "
                f"the plan is not minimal"
            )

    def test_cost_awareness(self):
        # Same failure probability, very different bandwidth costs: the
        # cheap message is topped up first.
        failure = {"cheap": 0.01, "dear": 0.01}
        instances = {"cheap": 10.0, "dear": 10.0}
        cost = {"cheap": 1.0, "dear": 100.0}
        # A goal reachable by boosting just one of them:
        base = set_success_probability(failure, {}, instances)
        one_boost = set_success_probability(failure, {"cheap": 1}, instances)
        rho = (base + one_boost) / 2
        plan = plan_retransmissions(failure, instances, rho,
                                    bandwidth_cost=cost)
        assert plan.budget_for("cheap") >= 1
        assert plan.budget_for("dear") == 0

    def test_infeasible_reported(self):
        plan = plan_retransmissions({"a": 0.5}, {"a": 1000.0},
                                    rho=1.0 - 1e-15, max_budget=1)
        assert not plan.feasible
        assert plan.budget_for("a") == 1  # best it could do

    def test_zero_failure_messages_skipped(self):
        plan = plan_retransmissions({"a": 0.0}, {"a": 10.0}, rho=1.0)
        assert plan.feasible
        assert plan.budget_for("a") == 0

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            plan_retransmissions({}, {}, rho=0.0)

    def test_rejects_missing_instances(self):
        with pytest.raises(ValueError):
            plan_retransmissions({"a": 0.1}, {}, rho=0.9)

    def test_total_cost_tracks_budgets(self):
        failure = {"a": 0.05}
        instances = {"a": 100.0}
        plan = plan_retransmissions(failure, instances, rho=0.99999,
                                    bandwidth_cost={"a": 2.5})
        assert plan.total_cost == pytest.approx(2.5 * plan.budget_for("a"))

    def test_achieved_probability_linear_space(self):
        plan = plan_retransmissions({"a": 0.01}, {"a": 10.0}, rho=0.999)
        assert 0.0 < plan.achieved_probability <= 1.0


class TestPlannerAgreesWithAna204:
    """The planner's ``feasible`` is the verdict ANA204 recomputes.

    On TTEthernet acc at rho = 1.0 the greedy loop's incremental sum
    rounds to +2.3e-18, above log(1.0) = 0, while the recomputed product
    misses by 2e-17: the plan must say infeasible, as ANA204 does.
    """

    @pytest.mark.parametrize("backend", ("flexray", "ttethernet"))
    @pytest.mark.parametrize("workload", ("bbw", "acc", "synthetic"))
    @pytest.mark.parametrize("rho", (1 - 1e-4, 1 - 1e-9, 1.0))
    @pytest.mark.parametrize("uniform", (False, True))
    def test_same_verdict(self, backend, workload, rho, uniform):
        derived, __ = _derived(backend, workload, rho, uniform)
        plan = derived.plan
        report = check_retransmission_plan(
            derived.failure_probabilities, derived.instances,
            plan.budgets, rho)
        assert plan.feasible is not report.has_errors
        assert plan.achieved_log_probability == plan_log_probability(
            derived.failure_probabilities, derived.instances, plan.budgets)


class TestDynamicRetransmissionCapacity:
    """The reserved slot carries one frame per channel per cycle."""

    @pytest.mark.parametrize("backend", ("flexray", "ttethernet"))
    @pytest.mark.parametrize("workload", ("bbw", "acc", "synthetic"))
    def test_one_frame_per_channel(self, backend, workload):
        derived, params = _derived(backend, workload, 1 - 1e-4)
        assert set(derived.dynamic_slots_per_cycle.values()) \
            == {params.channel_count}

    def test_frame_that_cannot_fit_gets_none(self):
        params = get_backend("flexray").workload_params("synthetic", 5)
        fits = max(bits for bits in range(0, 4000, 8)
                   if params.minislots_for_bits(bits) <= 5)
        assert dynamic_retransmission_capacity(params, fits) == 2
        assert dynamic_retransmission_capacity(params, fits + 8) == 0
        assert dynamic_retransmission_capacity(
            params.with_minislots(0), 0) == 0


class TestUniformPlan:
    def test_smallest_uniform_k(self):
        failure = {"a": 0.05, "b": 1e-9}
        instances = {"a": 100.0, "b": 100.0}
        rho = 0.9999
        plan = uniform_retransmission_plan(failure, instances, rho)
        assert plan.feasible
        k = plan.budget_for("a")
        assert plan.budget_for("b") == k  # uniform!
        # k-1 must fail the goal (smallest k).
        if k > 0:
            reduced = {m: k - 1 for m in failure}
            assert set_success_probability(failure, reduced, instances) < rho

    def test_uniform_costs_more_than_differentiated(self):
        failure = {"fragile": 0.05, **{f"robust{i}": 1e-9 for i in range(20)}}
        instances = {m: 100.0 for m in failure}
        rho = 0.9999
        differentiated = plan_retransmissions(failure, instances, rho)
        uniform = uniform_retransmission_plan(failure, instances, rho)
        assert sum(uniform.budgets.values()) > \
            sum(differentiated.budgets.values())

    def test_uniform_infeasible(self):
        plan = uniform_retransmission_plan({"a": 0.9}, {"a": 1e6},
                                           rho=1 - 1e-15, max_budget=2)
        assert not plan.feasible
        assert plan.budget_for("a") == 2

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            uniform_retransmission_plan({}, {}, rho=1.5)
