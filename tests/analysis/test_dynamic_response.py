"""Tests for the dynamic-segment worst-case delay analysis."""

import pytest

from repro.analysis.dynamic_response import (
    DynamicMessageSpec,
    dynamic_segment_schedulable,
    dynamic_worst_case_delay_cycles,
)


def spec(name="m", minislots=5, period=4):
    return DynamicMessageSpec(name=name, minislots=minislots,
                              period_cycles=period)


class TestSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DynamicMessageSpec(name="x", minislots=0, period_cycles=1)
        with pytest.raises(ValueError):
            DynamicMessageSpec(name="x", minislots=1, period_cycles=0)


class TestWorstCaseDelay:
    def test_highest_priority_no_delay(self):
        # Alone in a 20-minislot segment: transmits in its own cycle.
        assert dynamic_worst_case_delay_cycles(spec(), [], 20) == 0

    def test_structurally_too_large(self):
        assert dynamic_worst_case_delay_cycles(
            spec(minislots=25), [], 20) is None

    def test_traversal_counts(self):
        # 19 higher-priority IDs in a 20-minislot segment leave 1
        # minislot: a 2-minislot message never fits.
        rivals = [spec(name=f"r{i}", minislots=1, period=1000)
                  for i in range(19)]
        assert dynamic_worst_case_delay_cycles(
            spec(minislots=2), rivals, 20) is None

    def test_interference_delays(self):
        # One rival consuming most of each cycle: m waits.
        rival = spec(name="big", minislots=15, period=1)
        delay = dynamic_worst_case_delay_cycles(
            spec(minislots=10), [rival], 20)
        assert delay is None  # 15 + 10 + fragmentation never fit 20/cycle

    def test_interference_resolves_over_cycles(self):
        # Rival fires every 2nd cycle: m fits in the free cycle.
        rival = spec(name="big", minislots=15, period=2)
        delay = dynamic_worst_case_delay_cycles(
            spec(minislots=10), [rival], 30)
        assert delay is not None
        assert delay >= 1  # the release cycle may be the rival's

    def test_latest_tx_shrinks_capacity(self):
        with_gate = dynamic_worst_case_delay_cycles(
            spec(minislots=8), [spec(name="r", minislots=8, period=2)],
            segment_minislots=40, latest_tx=18)
        without = dynamic_worst_case_delay_cycles(
            spec(minislots=8), [spec(name="r", minislots=8, period=2)],
            segment_minislots=40)
        assert without is not None
        assert with_gate is None or with_gate >= without

    def test_monotone_in_priority(self):
        rivals = [spec(name=f"r{i}", minislots=4, period=3)
                  for i in range(4)]
        delays = []
        for index in range(len(rivals)):
            delay = dynamic_worst_case_delay_cycles(
                spec(minislots=4), rivals[:index], 40)
            delays.append(delay)
        assert all(d is not None for d in delays)
        assert delays == sorted(delays)


class TestSetSchedulability:
    def test_per_message_results(self):
        messages = [spec(name=f"m{i}", minislots=4, period=4)
                    for i in range(3)]
        results = dynamic_segment_schedulable(messages, 40, [2, 2, 2])
        assert len(results) == 3
        assert results[0][1] == 0              # highest priority instant
        assert all(meets for __, ___, meets in results)

    def test_deadline_violation_flagged(self):
        messages = [spec(name="hog", minislots=30, period=1),
                    spec(name="starved", minislots=10, period=4)]
        results = dynamic_segment_schedulable(messages, 40, [1, 1])
        assert results[1][2] is False

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dynamic_segment_schedulable([spec()], 40, [1, 2])


class TestCrossValidation:
    def test_bound_dominates_simulation(self, small_params):
        """Fault-free per-ID FTDMA simulation never exceeds the bound."""
        from repro.experiments.runner import run_experiment
        from repro.protocol.signal import Signal, SignalSet
        from repro.sim.trace_io import per_message_statistics

        aperiodic = SignalSet([
            Signal(name=f"a{i}", ecu=i % 3, period_ms=3.2,
                   offset_ms=0.1 * i, deadline_ms=3.2,
                   size_bits=150 + 40 * i, priority=i + 1,
                   aperiodic=True, min_interarrival_ms=3.2)
            for i in range(4)
        ])
        result = run_experiment(
            params=small_params, scheduler="dynamic-priority",
            aperiodic=aperiodic, ber=0.0, duration_ms=60.0,
        )
        params = small_params
        cycle_ms = params.cycle_ms
        specs = [
            DynamicMessageSpec(
                name=signal.name,
                minislots=params.minislots_for_bits(signal.size_bits),
                period_cycles=max(1, int(signal.period_ms // cycle_ms)),
            )
            for signal in aperiodic
        ]
        stats = {s.message_id: s
                 for s in per_message_statistics(result.cluster.trace)}
        for index, signal in enumerate(aperiodic):
            bound = dynamic_worst_case_delay_cycles(
                specs[index], specs[:index],
                params.g_number_of_minislots,
                params.effective_latest_tx,
            )
            assert bound is not None, signal.name
            # Delay bound is in whole cycles before the transmission
            # cycle; add one cycle for the in-cycle position.
            bound_mt = (bound + 1) * params.gd_cycle_mt
            observed = stats[signal.name].max_latency_mt
            assert observed <= bound_mt, (
                f"{signal.name}: observed {observed} MT exceeds "
                f"analytical bound {bound_mt} MT"
            )
