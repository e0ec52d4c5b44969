"""Unit tests for the metric primitives and the registry."""

from repro.obs import (
    CounterMetric,
    GaugeMetric,
    MetricsRegistry,
)


class TestPrimitives:
    def test_counter_starts_at_zero_and_accumulates(self):
        counter = CounterMetric("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_tracks_maximum(self):
        gauge = GaugeMetric("g")
        gauge.set(3.0)
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.maximum == 3.0


class TestRegistry:
    def test_create_or_get_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("a") is registry.gauge("a")

    def test_counter_value_of_untouched_counter(self):
        assert MetricsRegistry().counter_value("nope") == 0

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.inc("engine.a", 1)
        registry.inc("engine.b", 2)
        registry.inc("policy.c", 3)
        assert registry.counters_with_prefix("engine.") == {
            "engine.a": 1, "engine.b": 2,
        }

    def test_merge_counters_splits_ints_and_floats(self):
        registry = MetricsRegistry()
        registry.merge_counters("policy", {
            "steals": 7,            # int -> counter
            "utilization": 0.25,    # float -> gauge
            "feasible": True,       # bool -> gauge (bool is an int!)
        })
        snap = registry.snapshot()
        assert snap["counters"]["policy.steals"] == 7
        assert snap["gauges"]["policy.utilization"]["value"] == 0.25
        assert snap["gauges"]["policy.feasible"]["value"] == 1.0

    def test_merge_counters_accumulates_across_calls(self):
        registry = MetricsRegistry()
        registry.merge_counters("p", {"x": 2})
        registry.merge_counters("p", {"x": 3})
        assert registry.counter_value("p.x") == 5

    def test_merge_counters_empty_prefix(self):
        registry = MetricsRegistry()
        registry.merge_counters("", {"bare": 1})
        assert registry.counter_value("bare") == 1

    def test_snapshot_is_sorted_and_sectioned(self):
        registry = MetricsRegistry()
        registry.inc("z.last")
        registry.inc("a.first")
        registry.set_gauge("depth", 4)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a.first", "z.last"]
        assert snap["gauges"]["depth"] == {"value": 4, "max": 4}

    def test_snapshot_holds_no_wall_clock(self):
        # Wall clock lives only in the profiler; the registry is the
        # replay-comparable state.
        registry = MetricsRegistry()
        registry.inc("c")
        assert set(registry.snapshot()) == {"counters", "gauges"}
