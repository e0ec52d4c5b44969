"""ObsSnapshot: capture, merge, and apply semantics.

The invariant the campaign layer leans on: running N sub-tasks each in
an isolated child context and merging their snapshots in order must
leave exactly the state a single shared context would have accumulated
-- counters add, gauges keep the last-written value and the running
max, profiler sections accumulate, and captured hook events replay on the
parent bus in order.
"""

import pickle

from repro.obs import (
    HookRecorder,
    NULL_OBS,
    Observability,
    ObsSnapshot,
    attach_event_capture,
)


def _ops_first(obs):
    obs.inc("work.items", 3)
    obs.set_gauge("work.depth", 5.0)
    obs.set_gauge("work.depth", 2.0)
    obs.profiler.observe_ns("work.op", 100)
    obs.emit("work.done", part=1)
    with obs.section("work.phase"):
        pass


def _ops_second(obs):
    obs.inc("work.items", 4)
    obs.inc("work.extra")
    obs.set_gauge("work.depth", 4.0)
    obs.profiler.observe_ns("work.op", 250)
    obs.emit("work.done", part=2)
    with obs.section("work.phase"):
        pass


class TestCaptureAndMerge:
    def test_merged_children_match_shared_context(self):
        shared = Observability()
        _ops_first(shared)
        _ops_second(shared)

        child_a, child_b = Observability(), Observability()
        _ops_first(child_a)
        _ops_second(child_b)
        merged = ObsSnapshot.capture(child_a).merged_with(
            ObsSnapshot.capture(child_b))

        assert merged.deterministic() == {
            "counters": shared.deterministic_snapshot()["counters"],
            "gauges": shared.deterministic_snapshot()["gauges"],
        }
        # Profile sections accumulate too (values, not wall-clock
        # identity).
        assert merged.profile["work.op"] == {"count": 2, "total_ns": 350}
        assert merged.profile["work.phase"]["count"] == 2

    def test_gauge_last_write_wins_and_max_survives(self):
        first, second = Observability(), Observability()
        first.set_gauge("g", 9.0)
        second.set_gauge("g", 1.0)
        merged = ObsSnapshot.capture(first).merged_with(
            ObsSnapshot.capture(second))
        assert merged.gauges["g"] == {"value": 1.0, "max": 9.0}

    def test_merge_does_not_mutate_inputs(self):
        first, second = Observability(), Observability()
        first.inc("c", 1)
        second.inc("c", 2)
        snap_a = ObsSnapshot.capture(first)
        snap_b = ObsSnapshot.capture(second)
        snap_a.merged_with(snap_b)
        assert snap_a.counters == {"c": 1}
        assert snap_b.counters == {"c": 2}

    def test_merge_all_in_order(self):
        children = []
        for index in range(3):
            child = Observability()
            child.inc("n", index + 1)
            child.set_gauge("last", float(index))
            children.append(ObsSnapshot.capture(child))
        merged = ObsSnapshot.merge_all(children)
        assert merged.counters["n"] == 6
        assert merged.gauges["last"]["value"] == 2.0


class TestApply:
    def test_apply_folds_into_live_context(self):
        child = Observability()
        recorder = attach_event_capture(child)
        _ops_first(child)
        snapshot = ObsSnapshot.capture(child, events=recorder)

        parent = Observability()
        parent_recorder = HookRecorder()
        parent.hooks.subscribe_all(parent_recorder)
        snapshot.apply_to(parent)

        assert (parent.deterministic_snapshot()
                == child.deterministic_snapshot())
        assert parent_recorder.names() == ["work.done"]
        assert parent_recorder.of("work.done") == [{"part": 1}]
        assert parent.profiler.total_ns("work.phase") \
            == child.profiler.total_ns("work.phase")

    def test_apply_to_null_obs_is_noop(self):
        child = Observability()
        _ops_first(child)
        ObsSnapshot.capture(child).apply_to(NULL_OBS)
        assert NULL_OBS.snapshot()["counters"] == {}

    def test_apply_twice_accumulates(self):
        child = Observability()
        child.inc("c", 5)
        snapshot = ObsSnapshot.capture(child)
        parent = Observability()
        snapshot.apply_to(parent)
        snapshot.apply_to(parent)
        assert parent.deterministic_snapshot()["counters"]["c"] == 10

    def test_events_can_be_suppressed(self):
        child = Observability()
        recorder = attach_event_capture(child)
        child.emit("e", x=1)
        snapshot = ObsSnapshot.capture(child, events=recorder)
        parent = Observability()
        parent_recorder = HookRecorder()
        parent.hooks.subscribe_all(parent_recorder)
        snapshot.apply_to(parent, replay_events=False)
        assert len(parent_recorder) == 0


class TestPickleRoundTrip:
    def test_snapshot_pickles_cleanly(self):
        child = Observability()
        recorder = attach_event_capture(child)
        _ops_first(child)
        snapshot = ObsSnapshot.capture(child, events=recorder)
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone == snapshot


class TestChildContexts:
    def test_child_is_fresh_and_isolated(self):
        parent = Observability()
        parent.inc("c")
        child = parent.child()
        assert child.enabled
        assert child.deterministic_snapshot()["counters"] == {}
        child.inc("c")
        assert parent.deterministic_snapshot()["counters"]["c"] == 1

    def test_null_child_is_null(self):
        assert NULL_OBS.child() is NULL_OBS
