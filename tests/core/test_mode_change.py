"""Tests for online admission control (mode changes)."""

import pytest

from repro.core.mode_change import ModeChangeController
from repro.faults.ber import BitErrorRateModel
from repro.protocol.signal import Signal, SignalSet


def small_signal(name, size=100, period=1.6, ecu=0, offset=0.0):
    return Signal(name=name, ecu=ecu, period_ms=period, offset_ms=offset,
                  deadline_ms=period, size_bits=size)


@pytest.fixture
def controller(small_params, tiny_periodic_signals):
    return ModeChangeController(small_params, tiny_periodic_signals)


class TestConstruction:
    def test_baseline_evaluated(self, controller):
        assert controller.current.admitted
        assert controller.current.table is not None

    def test_inadmissible_baseline_rejected(self, small_params):
        # 30 always-on unmergeable frames cannot fit 20 slot-channels
        # (distinct ECUs prevent packing them together).
        heavy = SignalSet([
            small_signal(f"h{i}", period=0.8, size=300, ecu=i)
            for i in range(30)
        ])
        with pytest.raises(ValueError):
            ModeChangeController(small_params, heavy)


class TestAdmission:
    def test_admit_fitting_signal(self, controller):
        decision = controller.try_admit(small_signal("new"))
        assert decision.admitted
        assert "new" in controller.signals
        assert decision.packing is not None
        assert all(v.meets_deadline for v in decision.validations)

    def test_duplicate_rejected(self, controller):
        decision = controller.try_admit(small_signal("p1"))
        assert not decision.admitted
        assert "duplicate" in decision.reason

    def test_rejection_preserves_state(self, small_params,
                                       tiny_periodic_signals):
        controller = ModeChangeController(small_params,
                                          tiny_periodic_signals)
        before = len(controller.signals)
        # A flood of always-on frames overflows the schedule eventually.
        admitted = 0
        rejected = None
        for index in range(40):
            decision = controller.try_admit(
                small_signal(f"flood{index}", period=0.8, size=300,
                             ecu=10 + index))
            if decision.admitted:
                admitted += 1
            else:
                rejected = decision
                break
        assert admitted > 0
        assert rejected is not None
        assert "infeasible" in rejected.reason or \
            "deadline" in rejected.reason
        assert len(controller.signals) == before + admitted

    def test_history_records_everything(self, controller):
        controller.try_admit(small_signal("a"))
        controller.try_admit(small_signal("a"))  # duplicate
        assert len(controller.history) == 2
        assert controller.history[0].admitted
        assert not controller.history[1].admitted


class TestReliabilityCheck:
    def test_admission_with_goal(self, small_params,
                                 tiny_periodic_signals):
        controller = ModeChangeController(
            small_params, tiny_periodic_signals,
            ber_model=BitErrorRateModel(ber_channel_a=1e-5),
            reliability_goal=0.9999, time_unit_ms=100.0,
        )
        decision = controller.try_admit(small_signal("new"))
        assert decision.admitted
        assert decision.plan is not None
        assert decision.plan.feasible

    def test_slack_demand_enforced(self, small_params):
        """A workload that fills the schedule leaves no slack for its
        own retransmission plan: admission must refuse."""
        # Unmergeable always-on frames filling most slot-channels.
        base = SignalSet([
            small_signal(f"b{i}", period=0.8, size=300, ecu=i)
            for i in range(10)
        ])
        # Calibrated so the baseline's plan (k=1 each) exactly matches
        # the structural slack; any admitted always-on frame then both
        # raises demand and shrinks supply.
        controller = ModeChangeController(
            small_params, base,
            ber_model=BitErrorRateModel(ber_channel_a=2e-6),
            reliability_goal=1 - 1e-3, time_unit_ms=100.0,
        )
        outcomes = []
        for index in range(9):
            outcomes.append(controller.try_admit(
                small_signal(f"fill{index}", period=0.8, size=300,
                             ecu=20 + index)))
        # Somewhere along the flood the slack check (or feasibility)
        # must start rejecting.
        assert any(not d.admitted for d in outcomes)
        rejected = next(d for d in outcomes if not d.admitted)
        assert ("slack" in rejected.reason
                or "infeasible" in rejected.reason
                or "deadline" in rejected.reason)


class TestRetire:
    def test_retire_frees_capacity(self, small_params,
                                   tiny_periodic_signals):
        controller = ModeChangeController(small_params,
                                          tiny_periodic_signals)
        # Fill until rejection...
        index = 0
        while True:
            decision = controller.try_admit(
                small_signal(f"fill{index}", period=0.8, size=300,
                             ecu=10 + index))
            if not decision.admitted:
                break
            index += 1
        # ...retire one stream, then the rejected one fits.
        assert controller.retire("fill0").admitted
        retry = controller.try_admit(
            small_signal("retry", period=0.8, size=300, ecu=99))
        assert retry.admitted

    def test_retire_unknown(self, controller):
        decision = controller.retire("ghost")
        assert not decision.admitted
