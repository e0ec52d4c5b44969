"""Engine-path coverage: trace export round-trips and dynamic-segment
minislot boundary cases, each exercised on every engine path.

The differential tests (`test_trace_equivalence.py`) prove vectorized
== interpreter on broad workloads, on both of the vectorized engine's
settle paths (`engine_paths.py`); this module pins the
awkward corners of the dynamic segment -- a frame that consumes the
*entire* minislot budget (its transmission ends exactly when the
segment does), a frame one minislot too large (held forever), and a
cycle with no dynamic segment at all -- and checks that traces produced
by any engine survive the CSV pipeline byte-identically.
"""

import io

import pytest

from repro.protocol.signal import Signal, SignalSet
from repro.sim.trace import canonical_trace_bytes
from repro.sim.trace_io import export_csv, import_csv
from tests.sim.engine_paths import PATHS, run_path


FILL_BITS = 1600


def exact_fill_params(params, bits=FILL_BITS):
    """Shrink the dynamic segment so a ``bits`` frame fills it exactly."""
    return params.with_minislots(params.minislots_for_bits(bits))


def aperiodic(name, bits, period_ms=4.0):
    return Signal(name=name, ecu=2, period_ms=period_ms, offset_ms=0.5,
                  deadline_ms=period_ms, size_bits=bits, priority=1,
                  aperiodic=True)


def run_mode(path, params, periodic, aperiodics, duration_ms=20.0):
    return run_path(
        path,
        params=params,
        scheduler="dynamic-priority",
        periodic=periodic,
        aperiodic=SignalSet(aperiodics) if aperiodics else None,
        ber=0.0,
        seed=9,
        duration_ms=duration_ms,
    )


class TestMinislotBoundaries:
    @pytest.mark.parametrize("path", PATHS)
    def test_frame_exactly_fills_segment(self, path, small_params,
                                         tiny_periodic_signals):
        """A dynamic frame sized to the whole minislot budget ends exactly
        with the segment: transmission consumes every minislot."""
        params = exact_fill_params(small_params)
        result = run_mode(path, params, tiny_periodic_signals,
                          [aperiodic("fill", FILL_BITS)])
        dynamic = result.cluster.trace.records_for_segment("dynamic")
        assert dynamic, "the exact-fill frame was never transmitted"
        for record in dynamic:
            assert (params.minislots_for_bits(record.payload_bits)
                    == params.g_number_of_minislots)

    def test_exact_fill_trace_equivalent(self, small_params,
                                         tiny_periodic_signals):
        params = exact_fill_params(small_params)
        traces = [
            run_mode(path, params, tiny_periodic_signals,
                     [aperiodic("fill", FILL_BITS)]).cluster.trace
            for path in PATHS
        ]
        assert len({canonical_trace_bytes(t) for t in traces}) == 1

    @pytest.mark.parametrize("path", PATHS)
    def test_oversized_frame_is_held_forever(self, path, small_params,
                                             tiny_periodic_signals):
        """One minislot short of fitting: the frame never fits and is held
        cycle after cycle, consuming one minislot per attempt."""
        params = small_params.with_minislots(
            exact_fill_params(small_params).g_number_of_minislots - 1)
        result = run_mode(path, params, tiny_periodic_signals,
                          [aperiodic("toobig", FILL_BITS)],
                          duration_ms=10.0)
        assert not any(
            r.message_id.startswith("toobig")
            for r in result.cluster.trace.records_for_segment("dynamic"))

    @pytest.mark.parametrize("path", PATHS)
    def test_zero_minislots_never_transmits_dynamic(
            self, path, small_params, tiny_periodic_signals):
        """No dynamic segment: aperiodic traffic can never be sent."""
        params = small_params.with_minislots(0)
        result = run_mode(path, params, tiny_periodic_signals,
                          [aperiodic("stuck", 64)], duration_ms=10.0)
        assert result.cluster.trace.records_for_segment("dynamic") == []
        assert result.cluster.trace.records_for_segment("static")

    def test_zero_minislots_trace_equivalent(self, small_params,
                                             tiny_periodic_signals):
        params = small_params.with_minislots(0)
        traces = [
            run_mode(path, params, tiny_periodic_signals,
                     [aperiodic("stuck", 64)], duration_ms=10.0).cluster.trace
            for path in PATHS
        ]
        assert len({canonical_trace_bytes(t) for t in traces}) == 1


class TestTraceIoRoundTripPerMode:
    @pytest.mark.parametrize("path", PATHS)
    def test_csv_round_trip_preserves_canonical_bytes(
            self, path, small_params, tiny_periodic_signals,
            tiny_aperiodic_signals):
        """An engine-produced trace survives export -> import exactly."""
        result = run_path(
            path,
            params=small_params,
            scheduler="coefficient",
            periodic=tiny_periodic_signals,
            aperiodic=tiny_aperiodic_signals,
            ber=1e-4,
            seed=3,
            duration_ms=15.0,
        )
        trace = result.cluster.trace
        assert len(trace) > 0
        buffer = io.StringIO()
        export_csv(trace, buffer)
        buffer.seek(0)
        rebuilt = import_csv(buffer)
        assert canonical_trace_bytes(rebuilt) == canonical_trace_bytes(trace)
