"""Unit tests for the breakdown-load sensitivity analysis."""

import pytest

from repro.analysis.sensitivity import (
    aperiodic_breakdown_factor,
    bisect_breakdown,
    scale_aperiodic_load,
)
from repro.protocol.signal import Signal, SignalSet


class TestScaleAperiodicLoad:
    def _signals(self):
        return SignalSet([
            Signal(name="a", ecu=0, period_ms=10.0, offset_ms=0.0,
                   deadline_ms=10.0, size_bits=100, aperiodic=True,
                   min_interarrival_ms=10.0),
        ])

    def test_doubles_rate(self):
        scaled = scale_aperiodic_load(self._signals(), 2.0)
        assert scaled["a"].min_interarrival_ms == pytest.approx(5.0)
        assert scaled["a"].period_ms == pytest.approx(5.0)
        assert scaled["a"].deadline_ms == pytest.approx(10.0)  # unchanged

    def test_identity(self):
        scaled = scale_aperiodic_load(self._signals(), 1.0)
        assert scaled["a"].period_ms == pytest.approx(10.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_aperiodic_load(self._signals(), 0.0)

    def test_rejects_periodic_signals(self):
        periodic = SignalSet([
            Signal(name="p", ecu=0, period_ms=10.0, offset_ms=0.0,
                   deadline_ms=10.0, size_bits=100),
        ])
        with pytest.raises(ValueError):
            scale_aperiodic_load(periodic, 2.0)


class TestBisectBreakdown:
    def test_sharp_threshold(self):
        # Misses jump at factor 3.0 exactly.
        result = bisect_breakdown(
            lambda f: 0.0 if f <= 3.0 else 0.5,
            low=1.0, high=8.0, tolerance=0.02,
        )
        assert result.factor == pytest.approx(3.0, rel=0.05)
        assert result.miss_at_factor == 0.0
        assert result.miss_above > 0.01

    def test_already_broken_at_low(self):
        result = bisect_breakdown(lambda f: 1.0, low=1.0, high=4.0)
        assert result.factor == 1.0
        assert result.evaluations <= 2

    def test_never_breaks_expands_once(self):
        result = bisect_breakdown(lambda f: 0.0, low=1.0, high=4.0)
        assert result.factor == pytest.approx(8.0)

    def test_evaluation_cap(self):
        calls = []

        def miss(f):
            calls.append(f)
            return 0.0 if f <= 3.0 else 0.5

        bisect_breakdown(miss, low=1.0, high=8.0, tolerance=1e-9,
                         max_evaluations=6)
        assert len(calls) <= 6

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            bisect_breakdown(lambda f: 0.0, low=2.0, high=1.0)


class TestEndToEndBreakdown:
    def test_coefficient_sustains_more_than_fspec(self, small_params):
        """The headline sensitivity claim on a small fast workload."""
        periodic = SignalSet([
            Signal(name=f"p{i}", ecu=i % 2, period_ms=1.6, offset_ms=0.1 * i,
                   deadline_ms=1.6, size_bits=128)
            for i in range(3)
        ])
        aperiodic = SignalSet([
            Signal(name=f"a{i}", ecu=2, period_ms=2.0, offset_ms=0.2 * i,
                   deadline_ms=4.0, size_bits=250, priority=i + 1,
                   aperiodic=True, min_interarrival_ms=2.0)
            for i in range(4)
        ])
        kwargs = dict(params=small_params, periodic=periodic,
                      aperiodic=aperiodic, ber=0.0, duration_ms=80.0,
                      low=0.5, high=16.0, tolerance=0.2,
                      miss_threshold=0.02)
        co = aperiodic_breakdown_factor("coefficient", **kwargs)
        fs = aperiodic_breakdown_factor("fspec", **kwargs)
        assert co.factor > fs.factor
