"""Metric computation over transmission traces.

The paper evaluates four metrics (Section IV-B); each has a direct
counterpart here, computed as a pure function of a
:class:`~repro.sim.trace.TraceRecorder`:

1. **Running time** -- simulated time until a fixed workload of message
   instances has been fully delivered (Figures 1 and 2).
2. **Bandwidth utilization** -- "the ratio of the bandwidth that is
   actually used to the whole bandwidth" (Figure 3).  We count macroticks
   that carried *unique, successfully delivered* payload; redundant
   duplicate copies and corrupted attempts occupy the medium but do not
   contribute useful bandwidth.
3. **Transmission latency** -- generation time to first successful
   delivery, per segment (Figure 4).
4. **Deadline miss ratio** -- "the number of missing-deadline messages
   divided by the total number of the transmitted messages" (Figure 5).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs import NULL_OBS
from repro.sim.trace import TraceRecorder

__all__ = ["LatencyStats", "SimulationMetrics", "MetricsCollector"]


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency sample, in milliseconds."""

    count: int
    mean_ms: float
    median_ms: float
    p95_ms: float
    maximum_ms: float

    @staticmethod
    def from_macroticks(samples_mt: List[int], macrotick_us: float) -> "LatencyStats":
        """Summarize latency samples given the macrotick length in microseconds."""
        if not samples_mt:
            return LatencyStats(count=0, mean_ms=0.0, median_ms=0.0,
                                p95_ms=0.0, maximum_ms=0.0)
        to_ms = macrotick_us / 1000.0
        values = sorted(s * to_ms for s in samples_mt)
        p95_index = min(len(values) - 1, int(math.ceil(0.95 * len(values))) - 1)
        return LatencyStats(
            count=len(values),
            mean_ms=statistics.fmean(values),
            median_ms=statistics.median(values),
            p95_ms=values[p95_index],
            maximum_ms=values[-1],
        )


@dataclass(frozen=True)
class SimulationMetrics:
    """The complete metric set of one simulation run.

    Attributes:
        horizon_mt: Simulated duration over which metrics were computed.
        macrotick_us: Macrotick length used for unit conversion.
        running_time_ms: Time until the last instance delivery (paper's
            "running time"); ``inf`` if some instance was never delivered.
        last_delivery_ms: Time of the last successful instance delivery
            regardless of completeness (finite whenever anything was
            delivered) -- the robust variant of running time when a lossy
            baseline permanently drops a few instances.
        bandwidth_utilization: Useful-payload macroticks / total medium
            macroticks across both channels, in ``[0, 1]``.
        gross_utilization: Occupied macroticks (including corrupted and
            redundant attempts) / total medium macroticks.
        static_latency: Latency summary for static-segment messages.
        dynamic_latency: Latency summary for dynamic-segment messages.
        deadline_miss_ratio: Missed instances / produced instances.
        produced_instances: Message instances produced by hosts.
        delivered_instances: Instances delivered at least once.
        total_attempts: Frame transmission attempts, both channels.
        corrupted_attempts: Attempts lost to transient faults.
        retransmission_attempts: Attempts flagged as retransmissions.
    """

    horizon_mt: int
    macrotick_us: float
    running_time_ms: float
    last_delivery_ms: float
    bandwidth_utilization: float
    gross_utilization: float
    static_latency: LatencyStats
    dynamic_latency: LatencyStats
    deadline_miss_ratio: float
    produced_instances: int
    delivered_instances: int
    total_attempts: int
    corrupted_attempts: int
    retransmission_attempts: int

    @property
    def efficiency(self) -> float:
        """Useful share of the occupied bandwidth.

        ``bandwidth_utilization / gross_utilization``: 1.0 means every
        occupied macrotick carried unique delivered payload; redundancy,
        corruption and protocol overhead pull it down.
        """
        if self.gross_utilization == 0:
            return 0.0
        return self.bandwidth_utilization / self.gross_utilization

    def summary_row(self) -> Dict[str, float]:
        """Flat dict of headline numbers, convenient for table printing."""
        return {
            "running_time_ms": round(self.running_time_ms, 3),
            "bandwidth_utilization": round(self.bandwidth_utilization, 4),
            "efficiency": round(self.efficiency, 4),
            "static_latency_ms": round(self.static_latency.mean_ms, 3),
            "dynamic_latency_ms": round(self.dynamic_latency.mean_ms, 3),
            "deadline_miss_ratio": round(self.deadline_miss_ratio, 4),
        }


class MetricsCollector:
    """Computes :class:`SimulationMetrics` from a trace.

    Args:
        macrotick_us: Macrotick length in microseconds.
        channel_count: Number of physical channels the medium offers
            (2 for a dual-channel FlexRay cluster); the utilization
            denominator is ``horizon * channel_count``.
        obs: Observability context; reductions are profiled under
            ``metrics.compute`` and headline counts exported as
            ``metrics.*`` gauges when enabled.
    """

    def __init__(self, macrotick_us: float, channel_count: int = 2,
                 obs=NULL_OBS) -> None:
        if macrotick_us <= 0:
            raise ValueError(f"macrotick_us must be positive, got {macrotick_us}")
        if channel_count < 1:
            raise ValueError(f"channel_count must be >= 1, got {channel_count}")
        self._macrotick_us = macrotick_us
        self._channel_count = channel_count
        self._obs = obs

    def compute(self, trace: TraceRecorder, horizon_mt: int) -> SimulationMetrics:
        """Reduce a trace over ``[0, horizon_mt]`` to a metric set.

        Args:
            trace: Completed transmission trace.
            horizon_mt: Simulated duration in macroticks (> 0).
        """
        with self._obs.section("metrics.compute"):
            metrics = self._compute(trace, horizon_mt)
        if self._obs.enabled:
            self._export(metrics)
        return metrics

    def _export(self, metrics: "SimulationMetrics") -> None:
        """Publish headline counts as gauges (idempotent across calls)."""
        obs = self._obs
        obs.set_gauge("metrics.produced_instances",
                      metrics.produced_instances)
        obs.set_gauge("metrics.delivered_instances",
                      metrics.delivered_instances)
        obs.set_gauge("metrics.total_attempts", metrics.total_attempts)
        obs.set_gauge("metrics.corrupted_attempts",
                      metrics.corrupted_attempts)
        obs.set_gauge("metrics.retransmission_attempts",
                      metrics.retransmission_attempts)
        obs.set_gauge("metrics.deadline_miss_ratio",
                      metrics.deadline_miss_ratio)
        obs.set_gauge("metrics.bandwidth_utilization",
                      metrics.bandwidth_utilization)
        obs.emit("metrics.computed", horizon_mt=metrics.horizon_mt,
                 produced=metrics.produced_instances,
                 delivered=metrics.delivered_instances,
                 miss_ratio=metrics.deadline_miss_ratio)

    def _compute(self, trace: TraceRecorder,
                 horizon_mt: int) -> "SimulationMetrics":
        if horizon_mt <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_mt}")

        total_medium_mt = horizon_mt * self._channel_count
        # The record-level sums run inside the trace as it records
        # (useful bandwidth counts only each chunk's first delivered
        # copy, so duplicated channel-B copies (FSPEC) do not inflate it).
        occupied_mt, useful_mt, corrupted, retransmissions = \
            trace.reduction()

        # One walk over the instances, in any order (LatencyStats sorts
        # its samples).  An instance counts toward the segment of its
        # *first* attempt, even if a dynamic retransmission delivered it.
        static_samples: List[int] = []
        dynamic_samples: List[int] = []
        missed = 0
        last_delivery: Optional[int] = None
        summaries = trace.instance_summaries()
        for (_message_id, _instance, generation, deadline, delivered_at,
             segment) in summaries:
            if delivered_at is None or delivered_at > deadline:
                missed += 1
            if delivered_at is None:
                continue
            if last_delivery is None or delivered_at > last_delivery:
                last_delivery = delivered_at
            if segment == "dynamic":
                dynamic_samples.append(delivered_at - generation)
            else:
                static_samples.append(delivered_at - generation)

        produced = len(summaries)
        delivered = trace.delivered_count()
        last_delivery_ms = (0.0 if last_delivery is None
                            else last_delivery * self._macrotick_us / 1000.0)
        if produced == 0:
            running_time_ms = 0.0
        elif delivered < produced or last_delivery is None:
            running_time_ms = float("inf")
        else:
            running_time_ms = last_delivery_ms

        return SimulationMetrics(
            horizon_mt=horizon_mt,
            macrotick_us=self._macrotick_us,
            running_time_ms=running_time_ms,
            last_delivery_ms=last_delivery_ms,
            bandwidth_utilization=min(1.0, useful_mt / total_medium_mt),
            gross_utilization=min(1.0, occupied_mt / total_medium_mt),
            static_latency=LatencyStats.from_macroticks(
                static_samples, self._macrotick_us),
            dynamic_latency=LatencyStats.from_macroticks(
                dynamic_samples, self._macrotick_us),
            deadline_miss_ratio=(missed / produced) if produced else 0.0,
            produced_instances=produced,
            delivered_instances=delivered,
            total_attempts=len(trace),
            corrupted_attempts=corrupted,
            retransmission_attempts=retransmissions,
        )
