"""Unit tests for the ECU signal model."""

import pytest

from repro.protocol.signal import Signal, SignalSet


def make_signal(**overrides):
    fields = dict(name="s", ecu=0, period_ms=10.0, offset_ms=1.0,
                  deadline_ms=5.0, size_bits=100)
    fields.update(overrides)
    return Signal(**fields)


class TestSignalValidation:
    def test_valid(self):
        signal = make_signal()
        assert signal.name == "s"

    @pytest.mark.parametrize("overrides", [
        {"name": ""},
        {"ecu": -1},
        {"period_ms": 0.0},
        {"offset_ms": -1.0},
        {"deadline_ms": 0.0},
        {"size_bits": 0},
        {"deadline_ms": 20.0},          # deadline > period
        {"offset_ms": 15.0},            # offset > period
    ])
    def test_rejects(self, overrides):
        with pytest.raises(ValueError):
            make_signal(**overrides)

    def test_aperiodic_allows_deadline_over_period(self):
        signal = make_signal(aperiodic=True, deadline_ms=20.0)
        assert signal.deadline_ms == 20.0


class TestSignalProperties:
    def test_effective_priority_from_deadline(self):
        assert make_signal(deadline_ms=5.0).effective_priority == 5000

    def test_explicit_priority_wins(self):
        assert make_signal(priority=3).effective_priority == 3

    def test_utilization(self):
        assert make_signal().utilization == pytest.approx(10.0)

    def test_instances_in(self):
        signal = make_signal(period_ms=10.0, offset_ms=1.0)
        assert signal.instances_in(0.5) == 0
        assert signal.instances_in(1.0) == 0
        assert signal.instances_in(1.5) == 1
        assert signal.instances_in(21.5) == 3

    def test_release_and_deadline(self):
        signal = make_signal()
        assert signal.release_time_ms(0) == pytest.approx(1.0)
        assert signal.release_time_ms(2) == pytest.approx(21.0)
        assert signal.absolute_deadline_ms(2) == pytest.approx(26.0)

    def test_release_rejects_negative(self):
        with pytest.raises(ValueError):
            make_signal().release_time_ms(-1)


class TestSignalSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SignalSet([make_signal(), make_signal()])

    def test_lookup(self):
        signals = SignalSet([make_signal(name="a"), make_signal(name="b")])
        assert signals["a"].name == "a"
        assert "b" in signals
        assert "c" not in signals
        assert len(signals) == 2

    def test_periodic_aperiodic_split(self):
        signals = SignalSet([
            make_signal(name="p"),
            make_signal(name="a", aperiodic=True),
        ])
        assert [s.name for s in signals.periodic()] == ["p"]
        assert [s.name for s in signals.aperiodic()] == ["a"]

    def test_by_ecu(self):
        signals = SignalSet([
            make_signal(name="x", ecu=0),
            make_signal(name="y", ecu=1),
            make_signal(name="z", ecu=0),
        ])
        grouped = signals.by_ecu()
        assert [s.name for s in grouped[0]] == ["x", "z"]
        assert signals.ecu_count() == 2

    def test_hyperperiod(self):
        signals = SignalSet([
            make_signal(name="a", period_ms=10.0),
            make_signal(name="b", period_ms=15.0, deadline_ms=5.0),
        ])
        assert signals.hyperperiod_ms() == pytest.approx(30.0)

    def test_hyperperiod_fractional_periods(self):
        signals = SignalSet([
            make_signal(name="a", period_ms=0.8, offset_ms=0.1,
                        deadline_ms=0.8),
            make_signal(name="b", period_ms=1.2, offset_ms=0.1,
                        deadline_ms=1.2),
        ])
        assert signals.hyperperiod_ms() == pytest.approx(2.4)

    def test_hyperperiod_no_periodics(self):
        signals = SignalSet([make_signal(name="a", aperiodic=True)])
        assert signals.hyperperiod_ms() == 0.0

    def test_total_utilization(self):
        signals = SignalSet([
            make_signal(name="a"),               # 10 bits/ms
            make_signal(name="b", size_bits=50),  # 5 bits/ms
        ])
        assert signals.total_utilization() == pytest.approx(15.0)

    def test_merged_with(self):
        left = SignalSet([make_signal(name="a")], name="left")
        right = SignalSet([make_signal(name="b")], name="right")
        merged = left.merged_with(right)
        assert len(merged) == 2
        assert merged.name == "left+right"

    def test_merged_with_collision_rejected(self):
        left = SignalSet([make_signal(name="a")])
        right = SignalSet([make_signal(name="a")])
        with pytest.raises(ValueError):
            left.merged_with(right)

    def test_summary(self):
        signals = SignalSet([make_signal(name="a"),
                             make_signal(name="b", aperiodic=True)])
        summary = signals.summary()
        assert summary["signals"] == 2
        assert summary["periodic"] == 1
        assert summary["aperiodic"] == 1
