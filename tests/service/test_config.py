"""Unit tests for the service configuration loader and quantizer."""

import pytest

from repro.analysis.response_time import is_schedulable
from repro.protocol.signal import Signal
from repro.service.config import (
    SERVICE_WORKLOADS,
    build_channel_task_sets,
    load_service_setup,
    signal_to_task,
)
from repro.verify.verifier import ConfigurationError
from repro.workloads.bbw import bbw_signals


class TestSignalToTask:
    def test_execution_rounds_up(self):
        # 136 wire bits at 10 Mbit/s = 13.6 us; one 10 us tick cannot
        # hold it, so the conservative mapping charges two.
        signal = Signal(name="s", ecu=0, period_ms=10.0, offset_ms=0.0,
                        deadline_ms=10.0, size_bits=72)
        task = signal_to_task(signal, tick_us=10)
        assert task.execution == 2

    def test_execution_never_zero(self):
        signal = Signal(name="s", ecu=0, period_ms=100.0, offset_ms=0.0,
                        deadline_ms=100.0, size_bits=8)
        task = signal_to_task(signal, tick_us=100)
        assert task.execution >= 1

    def test_deadline_clamped_into_model(self):
        signal = Signal(name="s", ecu=0, period_ms=5.0, offset_ms=0.0,
                        deadline_ms=5.0, size_bits=64)
        task = signal_to_task(signal, tick_us=100)
        assert task.execution <= task.deadline <= task.period

    def test_aperiodic_signal_rejected(self):
        signal = Signal(name="s", ecu=0, period_ms=10.0, offset_ms=0.0,
                        deadline_ms=10.0, size_bits=64, aperiodic=True)
        with pytest.raises(ValueError, match="aperiodic"):
            signal_to_task(signal)


class TestChannelBalancing:
    def test_deterministic(self):
        first = build_channel_task_sets(bbw_signals())
        second = build_channel_task_sets(bbw_signals())
        assert {c: [t.name for t in ts] for c, ts in first.items()} == \
               {c: [t.name for t in ts] for c, ts in second.items()}

    def test_all_periodics_assigned_once(self):
        sets = build_channel_task_sets(bbw_signals())
        names = [t.name for ts in sets.values() for t in ts]
        periodic = [s.name for s in bbw_signals() if not s.aperiodic]
        assert sorted(names) == sorted(periodic)

    def test_load_roughly_balanced(self):
        sets = build_channel_task_sets(bbw_signals())
        utils = [ts.utilization() for ts in sets.values()]
        # Greedy LPT keeps the spread under one largest item.
        largest = max(t.utilization for ts in sets.values() for t in ts)
        assert max(utils) - min(utils) <= largest + 1e-12

    def test_per_channel_sets_schedulable(self):
        for __, tasks in build_channel_task_sets(bbw_signals()).items():
            assert is_schedulable(tasks.as_triples())


class TestLoadServiceSetup:
    def test_bbw_loads_verified(self):
        setup = load_service_setup("bbw")
        assert setup.channels == ("A", "B")
        assert all(len(ts) > 0 for ts in setup.channel_tasks.values())

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown service workload"):
            load_service_setup("canbus")

    def test_workload_list_is_stable(self):
        assert SERVICE_WORKLOADS == ("bbw", "acc", "synthetic", "sae")

    def test_unverifiable_config_raises(self):
        # A channel this noisy cannot meet the reliability goal within
        # the dynamic segment: the static gate must refuse to bring
        # the service up.
        with pytest.raises(ConfigurationError):
            load_service_setup("bbw", ber=1e-3)
