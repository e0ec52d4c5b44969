"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.obs import NULL_OBS, HookRecorder, Observability
from repro.sim.engine import EngineMode, Event, SimulationEngine
from repro.sim.events import EventKind


def collect(engine):
    seen = []
    for kind in EventKind:
        engine.register(kind, lambda eng, ev: seen.append(ev))
    return seen


class TestScheduling:
    def test_initial_clock_zero(self):
        assert SimulationEngine().now == 0

    def test_schedule_and_dispatch(self):
        engine = SimulationEngine()
        seen = collect(engine)
        engine.schedule(5, EventKind.CUSTOM, payload="x")
        engine.run_until(10)
        assert len(seen) == 1
        assert seen[0].time == 5
        assert seen[0].payload == "x"

    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        collect(engine)
        engine.schedule(7, EventKind.CUSTOM)
        engine.step()
        assert engine.now == 7

    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine()
        collect(engine)
        engine.schedule(5, EventKind.CUSTOM)
        engine.step()
        with pytest.raises(ValueError):
            engine.schedule(3, EventKind.CUSTOM)

    def test_schedule_in_relative(self):
        engine = SimulationEngine()
        collect(engine)
        engine.schedule(5, EventKind.CUSTOM)
        engine.step()
        event = engine.schedule_in(10, EventKind.CUSTOM)
        assert event.time == 15

    def test_schedule_in_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine().schedule_in(-1, EventKind.CUSTOM)

    def test_time_order(self):
        engine = SimulationEngine()
        seen = collect(engine)
        engine.schedule(30, EventKind.CUSTOM, payload=3)
        engine.schedule(10, EventKind.CUSTOM, payload=1)
        engine.schedule(20, EventKind.CUSTOM, payload=2)
        engine.run_until(100)
        assert [e.payload for e in seen] == [1, 2, 3]

    def test_kind_breaks_time_ties(self):
        engine = SimulationEngine()
        seen = collect(engine)
        engine.schedule(10, EventKind.MESSAGE_ARRIVAL)
        engine.schedule(10, EventKind.CYCLE_START)
        engine.run_until(100)
        # CYCLE_START (0) precedes MESSAGE_ARRIVAL (1) at equal times.
        assert [e.kind for e in seen] == [
            EventKind.CYCLE_START, EventKind.MESSAGE_ARRIVAL
        ]

    def test_sequence_breaks_full_ties(self):
        engine = SimulationEngine()
        seen = collect(engine)
        engine.schedule(10, EventKind.CUSTOM, payload="first")
        engine.schedule(10, EventKind.CUSTOM, payload="second")
        engine.run_until(100)
        assert [e.payload for e in seen] == ["first", "second"]


class TestRunLoops:
    def test_run_until_excludes_later_events(self):
        engine = SimulationEngine()
        seen = collect(engine)
        engine.schedule(5, EventKind.CUSTOM)
        engine.schedule(15, EventKind.CUSTOM)
        dispatched = engine.run_until(10)
        assert dispatched == 1
        assert len(seen) == 1
        assert engine.pending_events == 1

    def test_run_until_inclusive_at_horizon(self):
        engine = SimulationEngine()
        seen = collect(engine)
        engine.schedule(10, EventKind.CUSTOM)
        engine.run_until(10)
        assert len(seen) == 1

    def test_run_until_advances_clock_to_horizon(self):
        engine = SimulationEngine()
        collect(engine)
        engine.run_until(50)
        assert engine.now == 50

    def test_handler_can_schedule_more(self):
        engine = SimulationEngine()
        times = []

        def chain(eng, event):
            times.append(event.time)
            if event.time < 30:
                eng.schedule(event.time + 10, EventKind.CUSTOM)

        engine.register(EventKind.CUSTOM, chain)
        engine.schedule(10, EventKind.CUSTOM)
        engine.run_until(100)
        assert times == [10, 20, 30]

    def test_stop_halts_loop(self):
        engine = SimulationEngine()

        def stopper(eng, event):
            eng.stop()

        engine.register(EventKind.CUSTOM, stopper)
        engine.schedule(1, EventKind.CUSTOM)
        engine.schedule(2, EventKind.CUSTOM)
        dispatched = engine.run_until(10)
        assert dispatched == 1

    def test_run_to_completion(self):
        engine = SimulationEngine()
        seen = collect(engine)
        for t in (3, 1, 2):
            engine.schedule(t, EventKind.CUSTOM)
        dispatched = engine.run_to_completion()
        assert dispatched == 3
        assert [e.time for e in seen] == [1, 2, 3]

    def test_run_to_completion_event_cap(self):
        engine = SimulationEngine()

        def rescheduler(eng, event):
            eng.schedule_in(1, EventKind.CUSTOM)

        engine.register(EventKind.CUSTOM, rescheduler)
        engine.schedule(0, EventKind.CUSTOM)
        with pytest.raises(RuntimeError):
            engine.run_to_completion(max_events=100)

    def test_max_events_bound_on_run_until(self):
        engine = SimulationEngine()
        collect(engine)
        for t in range(10):
            engine.schedule(t, EventKind.CUSTOM)
        dispatched = engine.run_until(100, max_events=4)
        assert dispatched == 4

    def test_processed_counter(self):
        engine = SimulationEngine()
        collect(engine)
        engine.schedule(1, EventKind.CUSTOM)
        engine.schedule(2, EventKind.CUSTOM)
        engine.run_until(10)
        assert engine.processed_events == 2

    def test_multiple_handlers_in_order(self):
        engine = SimulationEngine()
        order = []
        engine.register(EventKind.CUSTOM, lambda e, ev: order.append("a"))
        engine.register(EventKind.CUSTOM, lambda e, ev: order.append("b"))
        engine.schedule(1, EventKind.CUSTOM)
        engine.run_until(10)
        assert order == ["a", "b"]

    def test_step_on_empty_queue(self):
        assert SimulationEngine().step() is None


class TestRunUntilClockSemantics:
    """Regression pins for the ``run_until`` clock contract.

    These tests freeze the current (documented) behavior so that kernel
    refactors cannot silently change the meaning of ``engine.now`` after
    a bounded run -- callers like the metric horizon computation rely on
    it.
    """

    def test_clock_advances_to_horizon_when_queue_drains_early(self):
        engine = SimulationEngine()
        collect(engine)
        engine.schedule(5, EventKind.CUSTOM)
        engine.run_until(50)
        # The last event fired at t=5, but the caller asked for a
        # 50-macrotick horizon: `now` reflects elapsed simulated time.
        assert engine.now == 50
        assert engine.pending_events == 0

    def test_clock_advances_to_horizon_on_empty_queue(self):
        engine = SimulationEngine()
        engine.run_until(25)
        assert engine.now == 25

    def test_clock_stays_at_first_beyond_horizon_event_boundary(self):
        engine = SimulationEngine()
        collect(engine)
        engine.schedule(5, EventKind.CUSTOM)
        engine.schedule(70, EventKind.CUSTOM)
        engine.run_until(50)
        # An event remains queued beyond the horizon; the clock still
        # advances to the horizon, never to the future event.
        assert engine.now == 50
        assert engine.pending_events == 1

    def test_stop_does_not_advance_clock_to_horizon(self):
        engine = SimulationEngine()

        def stopper(eng, event):
            eng.stop()

        engine.register(EventKind.CUSTOM, stopper)
        engine.schedule(3, EventKind.CUSTOM)
        engine.schedule(8, EventKind.CUSTOM)
        dispatched = engine.run_until(100)
        # stop() freezes the clock at the stopping event's time; the
        # remaining event stays queued.
        assert dispatched == 1
        assert engine.now == 3
        assert engine.pending_events == 1

    def test_stop_is_cleared_by_the_next_run(self):
        engine = SimulationEngine()
        stopped_once = []

        def stop_first(eng, event):
            if not stopped_once:
                stopped_once.append(True)
                eng.stop()

        engine.register(EventKind.CUSTOM, stop_first)
        engine.schedule(3, EventKind.CUSTOM)
        engine.schedule(8, EventKind.CUSTOM)
        engine.run_until(100)
        dispatched = engine.run_until(100)
        assert dispatched == 1
        assert engine.now == 100
        assert engine.pending_events == 0

    def test_max_events_break_still_advances_clock_to_horizon(self):
        # Pinned quirk: a max_events break is NOT a stop() -- the clock
        # still jumps to the horizon even though pre-horizon events
        # remain queued.  Callers combining max_events with `now`-based
        # horizons must account for this.
        engine = SimulationEngine()
        collect(engine)
        for t in range(10):
            engine.schedule(t, EventKind.CUSTOM)
        dispatched = engine.run_until(100, max_events=4)
        assert dispatched == 4
        assert engine.pending_events == 6
        assert engine.now == 100

    def test_max_events_remainder_dispatches_on_next_run(self):
        engine = SimulationEngine()
        seen = collect(engine)
        for t in range(6):
            engine.schedule(t, EventKind.CUSTOM)
        engine.run_until(100, max_events=2)
        dispatched = engine.run_until(100)
        assert dispatched == 4
        assert [e.time for e in seen] == list(range(6))
        assert engine.pending_events == 0

    def test_max_events_zero_dispatches_nothing(self):
        engine = SimulationEngine()
        collect(engine)
        engine.schedule(5, EventKind.CUSTOM)
        dispatched = engine.run_until(10, max_events=0)
        assert dispatched == 0
        assert engine.pending_events == 1
        # Even a zero-event run advances the clock (no stop was issued).
        assert engine.now == 10


class TestEngineObservability:
    def test_null_obs_is_the_default(self):
        engine = SimulationEngine()
        assert engine._obs is NULL_OBS

    def test_counters_and_queue_depth_gauge(self):
        obs = Observability()
        engine = SimulationEngine(obs=obs)
        collect(engine)
        engine.schedule(1, EventKind.CUSTOM)
        engine.schedule(2, EventKind.CYCLE_START)
        engine.run_until(10)
        snap = obs.deterministic_snapshot()
        assert snap["counters"]["engine.events_scheduled"] == 2
        assert snap["counters"]["engine.events_dispatched"] == 2
        assert snap["counters"]["engine.dispatch.CUSTOM"] == 1
        assert snap["counters"]["engine.dispatch.CYCLE_START"] == 1
        gauge = snap["gauges"]["engine.queue_depth"]
        assert gauge["value"] == 0  # drained
        assert gauge["max"] == 2   # both queued before the run

    def test_per_kind_handler_timers_recorded(self):
        obs = Observability()
        engine = SimulationEngine(obs=obs)
        collect(engine)
        engine.schedule(1, EventKind.CUSTOM)
        engine.run_until(10)
        timers = obs.snapshot()["timers"]
        assert timers["engine.handler.CUSTOM"]["count"] == 1

    def test_dispatch_hook_events_match_dispatch_order(self):
        obs = Observability()
        recorder = HookRecorder()
        obs.hooks.subscribe("engine.dispatch", recorder)
        engine = SimulationEngine(obs=obs)
        collect(engine)
        engine.schedule(30, EventKind.CUSTOM)
        engine.schedule(10, EventKind.CUSTOM)
        engine.schedule(10, EventKind.CYCLE_START)
        engine.run_until(100)
        times = [fields["time"] for __, fields in recorder.events]
        kinds = [fields["kind"] for __, fields in recorder.events]
        assert times == [10, 10, 30]
        assert kinds == ["CYCLE_START", "CUSTOM", "CUSTOM"]

    def test_set_observability_mid_run(self):
        obs = Observability()
        engine = SimulationEngine()
        collect(engine)
        engine.schedule(1, EventKind.CUSTOM)
        engine.schedule(2, EventKind.CUSTOM)
        engine.step()
        engine.set_observability(obs)
        engine.step()
        counters = obs.deterministic_snapshot()["counters"]
        assert counters["engine.events_dispatched"] == 1
        engine.set_observability(NULL_OBS)
        assert engine._observed is False

    def test_observation_does_not_change_dispatch(self):
        def run(obs):
            engine = SimulationEngine(obs=obs)
            seen = collect(engine)
            for t in (7, 3, 3, 9):
                engine.schedule(t, EventKind.CUSTOM)
            engine.run_until(8)
            return ([(e.time, e.sequence) for e in seen],
                    engine.now, engine.pending_events)

        assert run(NULL_OBS) == run(Observability())


class TestEvent:
    def test_sort_key_ordering(self):
        early = Event(time=1, kind=EventKind.CUSTOM, sequence=5)
        late = Event(time=2, kind=EventKind.CYCLE_START, sequence=0)
        assert early.sort_key() < late.sort_key()

    def test_immutable(self):
        event = Event(time=1, kind=EventKind.CUSTOM, sequence=0)
        with pytest.raises(AttributeError):
            event.time = 2


class TestEngineMode:
    def test_two_modes_vectorized_by_default(self):
        assert [mode.value for mode in EngineMode] == ["interpreter",
                                                       "vectorized"]
        assert EngineMode.parse(None) is EngineMode.VECTORIZED

    def test_parse_is_case_insensitive_and_idempotent(self):
        assert EngineMode.parse("Interpreter") is EngineMode.INTERPRETER
        assert EngineMode.parse(EngineMode.VECTORIZED) \
            is EngineMode.VECTORIZED

    def test_retired_stepper_mode_is_unknown(self):
        with pytest.raises(ValueError,
                           match="expected one of: interpreter, vectorized"):
            EngineMode.parse("stepper")
