"""Lightweight metric primitives: counters, gauges, timers, registry.

Design constraints, in order of importance:

1. **Determinism-safe.**  Counters and gauges are pure functions of the
   simulation's decisions -- never of wall-clock time -- so two replays
   of the same seed produce byte-identical counter snapshots.  Wall
   clock lives only in :class:`TimerMetric`, which the snapshot keeps in
   a separate section exactly so determinism checks can ignore it.

2. **Cheap.**  A counter increment is one dict lookup plus an integer
   add; hot paths that cannot afford even that are guarded by
   ``obs.enabled`` at the call site (see :mod:`repro.obs.observability`).

3. **Flat, dotted names.**  ``slack.promise_granted`` rather than
   nested objects: snapshots serialize trivially and tests can assert on
   names without walking a tree.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = ["CounterMetric", "GaugeMetric", "TimerMetric", "MetricsRegistry"]


class CounterMetric:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (negative increments are a caller bug)."""
        self.value += amount


class GaugeMetric:
    """A point-in-time value; also tracks the maximum ever set."""

    __slots__ = ("name", "value", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.maximum = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.maximum:
            self.maximum = value


class TimerMetric:
    """Accumulated wall-clock time of one named operation.

    Timers are *not* part of the deterministic state: two identical
    replays will disagree on nanoseconds.  Snapshots therefore carry
    timers in their own section.
    """

    __slots__ = ("name", "count", "total_ns", "max_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0

    def observe_ns(self, elapsed_ns: int) -> None:
        self.count += 1
        self.total_ns += elapsed_ns
        if elapsed_ns > self.max_ns:
            self.max_ns = elapsed_ns

    @property
    def mean_us(self) -> float:
        """Mean observation in microseconds (0 when never observed)."""
        if self.count == 0:
            return 0.0
        return self.total_ns / self.count / 1000.0


class MetricsRegistry:
    """Create-or-get store of named metrics.

    Names are dotted strings; the registry does not interpret them
    beyond sorting snapshots for stable output.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, CounterMetric] = {}
        self._gauges: Dict[str, GaugeMetric] = {}
        self._timers: Dict[str, TimerMetric] = {}

    # -- create-or-get -------------------------------------------------

    def counter(self, name: str) -> CounterMetric:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = CounterMetric(name)
        return metric

    def gauge(self, name: str) -> GaugeMetric:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = GaugeMetric(name)
        return metric

    def timer(self, name: str) -> TimerMetric:
        metric = self._timers.get(name)
        if metric is None:
            metric = self._timers[name] = TimerMetric(name)
        return metric

    # -- convenience write paths ---------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe_ns(self, name: str, elapsed_ns: int) -> None:
        self.timer(name).observe_ns(elapsed_ns)

    def merge_counters(self, prefix: str, values: Mapping[str, float]) -> None:
        """Bulk-import a plain counter dict under ``prefix.``.

        Integer values become counters, anything else a gauge -- this is
        how policy-internal ``counters`` dicts and planner stats join the
        registry without the hot paths touching it.
        """
        for key, value in values.items():
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(value, bool) or not isinstance(value, int):
                self.gauge(name).set(float(value))
            else:
                self.counter(name).inc(value)

    def merge_snapshot(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold a registry snapshot (or a subset of one) into this registry.

        The merge is the moral equivalent of replaying the source
        registry's writes after this registry's own: counters add,
        gauges take the incoming last-written value and the maximum of
        both maxima, timers accumulate counts/totals and keep the larger
        peak.  Merging per-seed snapshots in seed order therefore leaves
        exactly the totals a single shared registry would have seen.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, data in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.value = data["value"]
            if data["max"] > gauge.maximum:
                gauge.maximum = data["max"]
        for name, data in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            timer.count += data["count"]
            timer.total_ns += data["total_ns"]
            if data["max_ns"] > timer.max_ns:
                timer.max_ns = data["max_ns"]

    # -- read paths ----------------------------------------------------

    def counter_value(self, name: str) -> int:
        """Current value of a counter (0 if never touched)."""
        metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """All counters whose name starts with ``prefix``."""
        return {name: metric.value
                for name, metric in sorted(self._counters.items())
                if name.startswith(prefix)}

    def snapshot(self) -> Dict[str, Dict]:
        """Full, sorted, JSON-ready state.

        ``counters`` and ``gauges`` are deterministic; ``timers`` are
        wall-clock and must be excluded from replay comparisons.
        """
        return {
            "counters": {name: metric.value
                         for name, metric in sorted(self._counters.items())},
            "gauges": {name: {"value": metric.value,
                              "max": metric.maximum}
                       for name, metric in sorted(self._gauges.items())},
            "timers": {name: {"count": metric.count,
                              "total_ns": metric.total_ns,
                              "max_ns": metric.max_ns}
                       for name, metric in sorted(self._timers.items())},
        }

    def deterministic_snapshot(self) -> Dict[str, Dict]:
        """Counters and gauges only -- the replay-comparable subset."""
        full = self.snapshot()
        return {"counters": full["counters"], "gauges": full["gauges"]}
