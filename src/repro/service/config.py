"""Service configuration: verified cluster -> per-channel task sets.

``repro serve`` does not simulate; it answers admission questions
against the *analysis* view of a cluster: each channel's hard periodic
frames become a deadline-monotonic :class:`~repro.core.tasks.TaskSet`
in integer service ticks, and a :class:`~repro.service.ledger.SlackLedger`
precomputes the guaranteed aperiodic capacity from it.

Loading is always gated through :mod:`repro.verify`: the same
simulation-free checks the campaign gate runs (``FRC*`` geometry,
``ANA*`` analysis rules) must pass before the service will hold the
configuration live -- a service should fail at startup, not on request
40,000.

Quantization: one service tick is ``tick_us`` microseconds (default
100 us = 0.1 ms).  A signal's execution demand is its wire size (payload
plus frame overhead) over the channel bit rate, rounded up to whole
ticks; periods, offsets and deadlines round to nearest.  The mapping is
deliberately conservative -- rounding execution up can only under-claim
slack, never over-promise it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.tasks import PeriodicTask, TaskSet
from repro.protocol.backend import get_backend
from repro.protocol.signal import Signal, SignalSet
from repro.timeline.compiler import CompiledRound
from repro.verify import (
    ConfigurationError,
    compile_experiment,
    verify_experiment,
)
from repro.workloads import bundled_periodic
from repro.workloads.sae import sae_aperiodic_signals

__all__ = ["SERVICE_WORKLOADS", "ServiceSetup", "build_channel_task_sets",
           "load_service_setup", "round_task_sets", "signal_to_task"]

#: Workloads ``repro serve`` can hold live.  ``sae`` is the paper's
#: aperiodic study: the synthetic periodic backdrop with SAE-style
#: admission traffic expected from the load generator.
SERVICE_WORKLOADS = ("bbw", "acc", "synthetic", "sae")

#: Default frame overhead in bits (FlexRay header + trailer), matching
#: the ``repro plan`` wire-size convention; other backends pass their
#: geometry's ``frame_overhead_bits`` explicitly.
FRAME_OVERHEAD_BITS = 64

#: Default channel bit rate (FlexRay's 10 Mbit/s); other backends pass
#: their geometry's rate explicitly.
BIT_RATE_BPS = 10_000_000


@dataclass(frozen=True)
class ServiceSetup:
    """Everything a running admission service holds per configuration.

    Attributes:
        workload: Workload name the setup was built from.
        tick_us: Service tick length in microseconds.
        channel_tasks: Per-channel hard periodic task sets (ticks).
    """

    workload: str
    tick_us: int
    channel_tasks: Dict[str, TaskSet]

    @property
    def channels(self) -> Tuple[str, ...]:
        """Channel labels, sorted."""
        return tuple(sorted(self.channel_tasks))


def signal_to_task(signal: Signal, tick_us: int = 100,
                   bit_rate_bps: int = BIT_RATE_BPS,
                   overhead_bits: int = FRAME_OVERHEAD_BITS) -> PeriodicTask:
    """Quantize one periodic signal into a processor-model task.

    Args:
        signal: A periodic (non-aperiodic) signal.
        tick_us: Tick length in microseconds.
        bit_rate_bps: Channel bit rate.
        overhead_bits: Per-frame wire overhead of the protocol.

    Returns:
        A :class:`PeriodicTask` in ticks; execution is the wire time
        rounded *up*, deadline/period/offset rounded to nearest (with
        the task-model constraints re-imposed).
    """
    if signal.aperiodic:
        raise ValueError(f"{signal.name}: aperiodic signals do not map "
                         f"to periodic tasks")
    ticks_per_ms = 1000.0 / tick_us
    wire_bits = signal.size_bits + overhead_bits
    wire_ms = wire_bits * 1000.0 / bit_rate_bps
    execution = max(1, math.ceil(wire_ms * ticks_per_ms))
    period = max(1, round(signal.period_ms * ticks_per_ms))
    deadline = max(execution,
                   min(period, round(signal.deadline_ms * ticks_per_ms)))
    offset = min(period, round(signal.offset_ms * ticks_per_ms))
    return PeriodicTask(name=signal.name, execution=execution,
                        period=period, deadline=deadline, offset=offset)


def build_channel_task_sets(signals: SignalSet, tick_us: int = 100,
                            bit_rate_bps: int = BIT_RATE_BPS,
                            channels: Tuple[str, ...] = ("A", "B"),
                            overhead_bits: int = FRAME_OVERHEAD_BITS,
                            ) -> Dict[str, TaskSet]:
    """Partition periodic signals over channels, balanced by load.

    The cooperative dual-channel idea at analysis altitude: greedy
    longest-processing-time assignment of each signal to the currently
    least-utilized channel, then deadline-monotonic priority order per
    channel.  Deterministic: signals are considered in (utilization,
    name) order, ties broken toward the alphabetically first channel.
    """
    if not channels:
        raise ValueError("need at least one channel")
    tasks = [signal_to_task(s, tick_us, bit_rate_bps, overhead_bits)
             for s in signals if not s.aperiodic]
    ordered = sorted(tasks, key=lambda t: (-t.utilization, t.name))
    load: Dict[str, float] = {c: 0.0 for c in channels}
    assigned: Dict[str, list] = {c: [] for c in channels}
    for task in ordered:
        target = min(sorted(load), key=lambda c: load[c])
        assigned[target].append(task)
        load[target] += task.utilization
    return {
        channel: TaskSet.deadline_monotonic(assigned[channel])
        for channel in sorted(channels)
    }


def round_task_sets(compiled: CompiledRound, tick_us: int = 100,
                    bit_rate_bps: Optional[int] = None) -> Dict[str, TaskSet]:
    """Per-channel task sets read directly from a compiled round.

    The admission service's analysis view and the simulator's execution
    view used to derive the signal->slot mapping independently; both now
    read one :class:`~repro.timeline.compiler.CompiledRound`.  Every
    distinct (channel, slot, frame) assignment of the round becomes one
    periodic task: its period is the frame's repetition in cycles, its
    offset the first transmission window's start, its execution the wire
    time (rounded up -- under-claiming slack is safe, over-promising is
    not), and its deadline implicit (= period; frames must drain before
    their next firing).
    """
    params = compiled.params
    if bit_rate_bps is None:
        bit_rate_bps = int(params.bit_rate_mbps * 1_000_000)
    ticks_per_ms = 1000.0 / tick_us
    mt_per_ms = 1000.0 / params.gd_macrotick_us
    sets: Dict[str, TaskSet] = {}
    for channel in compiled.channels:
        tasks = []
        for cycle in range(compiled.pattern_length):
            for slot_id in compiled.owned_slots(channel, cycle):
                frame = compiled.owner(channel, cycle, slot_id)
                if frame is None or not frame.sends_in_cycle(cycle):
                    continue
                if cycle != frame.base_cycle:
                    continue  # one task per assignment, not per firing
                wire_ms = frame.total_bits * 1000.0 / bit_rate_bps
                execution = max(1, math.ceil(wire_ms * ticks_per_ms))
                period_ms = (frame.cycle_repetition
                             * params.gd_cycle_mt / mt_per_ms)
                period = max(1, round(period_ms * ticks_per_ms))
                offset_mt = (frame.base_cycle * params.gd_cycle_mt
                             + (slot_id - 1) * params.gd_static_slot_mt)
                offset = min(period, round(offset_mt / mt_per_ms
                                           * ticks_per_ms))
                tasks.append(PeriodicTask(
                    name=f"{frame.message_id}@{channel.value}:{slot_id}",
                    execution=execution, period=period,
                    deadline=max(execution, period), offset=offset,
                ))
        sets[channel.value] = TaskSet.deadline_monotonic(tasks)
    return sets


def _workload_signals(workload: str, count: int, seed: int) -> SignalSet:
    if workload not in SERVICE_WORKLOADS:
        raise ValueError(f"unknown service workload {workload!r}; "
                         f"expected one of {SERVICE_WORKLOADS}")
    return bundled_periodic("synthetic" if workload == "sae" else workload,
                            count, seed)


def load_service_setup(workload: str = "synthetic", count: int = 20,
                       seed: int = 42, minislots: Optional[int] = None,
                       ber: float = 1e-7,
                       reliability_goal: float = 1 - 1e-4,
                       tick_us: int = 100,
                       mapping: str = "signals",
                       backend: str = "flexray") -> ServiceSetup:
    """Build and statically verify one service configuration.

    Args:
        workload: One of :data:`SERVICE_WORKLOADS`.
        count: Synthetic signal count (synthetic/sae only).
        seed: Synthetic workload seed.
        minislots: Dynamic-segment minislots (default: 50 for the case
            studies, 100 otherwise).
        ber: Bit error rate for the verification gate.
        reliability_goal: rho for the verification gate.
        tick_us: Service tick length in microseconds.
        mapping: ``"signals"`` (default) balances the raw signals over
            channels by load; ``"round"`` packs and schedules the
            signals exactly as the simulator does and reads the task
            sets from the resulting compiled round
            (:func:`round_task_sets`), so the service accounts against
            the *placed* schedule rather than an idealized partition.
        backend: Protocol backend name (``repro.protocol.get_backend``);
            selects the geometry the workload is packed against.

    Returns:
        A :class:`ServiceSetup` ready to hand to the server.

    Raises:
        ConfigurationError: The :func:`repro.verify.verify_experiment`
            gate found errors.
    """
    if mapping not in ("signals", "round"):
        raise ValueError(f"unknown task mapping {mapping!r}; "
                         f"expected 'signals' or 'round'")
    protocol = get_backend(backend)
    periodic = _workload_signals(workload, count, seed)
    params = protocol.workload_params(workload, minislots)

    aperiodic = sae_aperiodic_signals() if workload == "sae" else None
    report = verify_experiment(params=params, periodic=periodic,
                               aperiodic=aperiodic, ber=ber,
                               reliability_goal=reliability_goal)
    if report.has_errors:
        raise ConfigurationError(report)

    if mapping == "round":
        __, __, compiled = compile_experiment(params, periodic)
        channel_tasks = round_task_sets(compiled, tick_us=tick_us)
    else:
        channel_tasks = build_channel_task_sets(
            periodic, tick_us=tick_us,
            bit_rate_bps=int(params.bit_rate_mbps * 1_000_000),
            overhead_bits=params.frame_overhead_bits,
        )
    return ServiceSetup(workload=workload, tick_us=tick_us,
                        channel_tasks=channel_tasks)
