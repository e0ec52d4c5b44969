"""Unit tests for the hook bus, the profiler, and the facade."""

import pytest

from repro.obs import (
    NULL_OBS,
    HookBus,
    HookRecorder,
    NullObservability,
    Observability,
    Profiler,
    format_profile,
)


class TestHookBus:
    def test_no_subscribers_is_a_noop(self):
        bus = HookBus()
        assert bus.has_subscribers is False
        bus.emit("anything", {"x": 1})  # must not raise

    def test_per_event_subscription(self):
        bus = HookBus()
        recorder = HookRecorder()
        bus.subscribe("a", recorder)
        bus.emit("a", {"n": 1})
        bus.emit("b", {"n": 2})
        assert recorder.names() == ["a"]
        assert recorder.of("a") == [{"n": 1}]

    def test_wildcard_sees_everything(self):
        bus = HookBus()
        recorder = HookRecorder()
        bus.subscribe_all(recorder)
        bus.emit("a", {})
        bus.emit("b", {})
        assert recorder.names() == ["a", "b"]

    def test_subscribers_run_in_subscription_order(self):
        bus = HookBus()
        order = []
        bus.subscribe("a", lambda e, f: order.append("first"))
        bus.subscribe("a", lambda e, f: order.append("second"))
        bus.subscribe_all(lambda e, f: order.append("wildcard"))
        bus.emit("a", {})
        # Per-event subscribers run before wildcards.
        assert order == ["first", "second", "wildcard"]

    def test_recorder_limit_bounds_capture(self):
        recorder = HookRecorder(limit=2)
        for i in range(5):
            recorder("e", {"i": i})
        assert len(recorder) == 2
        assert recorder.of("e") == [{"i": 0}, {"i": 1}]

    def test_recorder_copies_fields(self):
        recorder = HookRecorder()
        fields = {"x": 1}
        recorder("e", fields)
        fields["x"] = 99
        assert recorder.of("e") == [{"x": 1}]


class TestProfiler:
    def test_section_accumulates(self):
        profiler = Profiler()
        with profiler.section("work"):
            pass
        with profiler.section("work"):
            pass
        snap = profiler.snapshot()
        assert snap["work"]["count"] == 2
        assert snap["work"]["total_ns"] >= 0

    def test_rows_sorted_by_total_descending(self):
        profiler = Profiler()
        profiler.observe_ns("small", 10)
        profiler.observe_ns("big", 1000)
        rows = profiler.rows()
        assert [r["section"] for r in rows] == ["big", "small"]
        assert rows[0]["calls"] == 1
        assert rows[0]["total_ms"] == pytest.approx(1e-3)

    def test_sections_survive_exceptions(self):
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with profiler.section("boom"):
                raise RuntimeError("x")
        assert profiler.snapshot()["boom"]["count"] == 1

    def test_format_profile_renders_rows(self):
        profiler = Profiler()
        profiler.observe_ns("alpha", 5000)
        text = format_profile(profiler)
        assert "alpha" in text
        assert "calls" in text

    def test_format_profile_empty(self):
        assert "no profile sections" in format_profile(Profiler())


class TestFacade:
    def test_enabled_facade_routes_to_registry(self):
        obs = Observability()
        obs.inc("c", 2)
        obs.set_gauge("g", 7)
        obs.profiler.observe_ns("t", 50)
        snap = obs.snapshot()
        assert snap["counters"]["c"] == 2
        assert snap["gauges"]["g"]["value"] == 7
        assert snap["profile"]["t"] == {"count": 1, "total_ns": 50}
        assert set(snap) == {"counters", "gauges", "profile"}

    def test_facade_emit_reaches_subscribers(self):
        obs = Observability()
        recorder = HookRecorder()
        obs.hooks.subscribe("evt", recorder)
        obs.emit("evt", a=1, b="x")
        assert recorder.of("evt") == [{"a": 1, "b": "x"}]

    def test_now_ns_is_monotonic(self):
        obs = Observability()
        assert obs.now_ns() <= obs.now_ns()

    def test_null_obs_is_disabled_and_inert(self):
        assert NULL_OBS.enabled is False
        NULL_OBS.inc("c")
        NULL_OBS.set_gauge("g", 1)
        NULL_OBS.merge_counters("p", {"x": 1})
        NULL_OBS.emit("e", x=1)
        with NULL_OBS.section("s"):
            pass
        assert NULL_OBS.now_ns() == 0
        assert NULL_OBS.snapshot() == {
            "counters": {}, "gauges": {}, "profile": {},
        }
        assert NULL_OBS.deterministic_snapshot() == {
            "counters": {}, "gauges": {},
        }

    def test_null_section_is_shared(self):
        null = NullObservability()
        assert null.section("a") is null.section("b")
