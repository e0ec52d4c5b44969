"""A small discrete-event simulation kernel.

The kernel is a classic event-list simulator: a priority queue of
timestamped events, a monotonic simulated clock, and handler dispatch.
Determinism is guaranteed by a three-level ordering key
``(time, kind, sequence)`` -- two events at the same instant are ordered
first by :class:`~repro.sim.events.EventKind` and then by insertion order,
so a simulation replays identically for a given seed regardless of dict
iteration order or handler registration order.

Time is an integer number of *macroticks* (the FlexRay time base).  Using
integers removes floating-point drift over long horizons: a 10-minute
simulation at a 1 microsecond macrotick is 6e8 ticks, well inside exact
integer range but already past the point where repeated float addition
would accumulate error.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.obs import NULL_OBS
from repro.sim.events import EventKind

__all__ = ["Event", "EngineMode", "SimulationEngine"]


class EngineMode(enum.Enum):
    """How the simulation advances time.

    INTERPRETER is the pure event-list oracle: every slot of every cycle
    is a separate query.  VECTORIZED (the default) walks the compiled
    :class:`~repro.timeline.compiler.CompiledRound` and settles each
    segment of each cycle as one phase-split batch: all policy queries
    first, then the fault draws, one batched trace append and the
    outcome replay.  Fault draws of 16 or more entries per channel use
    numpy; everything else is plain Python.  Segments whose policy
    cannot promise outcome-free decisions (feedback ARQ) are delegated
    to the per-slot :class:`~repro.timeline.stepper.TimelineStepper`
    and, through it, the interpreter.  Both modes produce
    byte-identical traces; the differential tests in
    ``tests/sim/test_trace_equivalence.py`` and the fuzz suite in
    ``tests/sim/test_engine_fuzz.py`` prove it.
    """

    INTERPRETER = "interpreter"
    VECTORIZED = "vectorized"

    @classmethod
    def parse(cls, value: Union[str, "EngineMode", None]) -> "EngineMode":
        """Coerce a CLI/env string (or an existing mode) to a mode."""
        if value is None:
            return cls.VECTORIZED
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            names = ", ".join(mode.value for mode in cls)
            raise ValueError(
                f"unknown engine mode {value!r} (expected one of: {names})"
            ) from None


@dataclass(frozen=True)
class Event:
    """An immutable scheduled event.

    Attributes:
        time: Absolute simulated time in macroticks.
        kind: The event's :class:`EventKind`.
        sequence: Kernel-assigned insertion index; breaks ties.
        payload: Arbitrary handler-defined data.
    """

    time: int
    kind: EventKind
    sequence: int
    payload: object = None

    def sort_key(self) -> tuple:
        """Total ordering key used by the event list."""
        return (self.time, int(self.kind), self.sequence)


class SimulationEngine:
    """Event-list simulator with integer macrotick time.

    Handlers are registered per :class:`EventKind` and invoked with the
    engine and the event.  Handlers may schedule further events (at the
    current time or later -- scheduling into the past is an error).

    Example:
        >>> engine = SimulationEngine()
        >>> seen = []
        >>> engine.register(EventKind.CUSTOM, lambda eng, ev: seen.append(ev.time))
        >>> engine.schedule(10, EventKind.CUSTOM)
        >>> engine.run_until(100)
        >>> seen
        [10]
    """

    def __init__(self, obs=NULL_OBS,
                 mode: Union[str, EngineMode] = EngineMode.INTERPRETER) -> None:
        self._queue: List[tuple] = []
        self._sequence = itertools.count()
        self._now = 0
        self._handlers: Dict[EventKind, List[Callable[["SimulationEngine", Event], None]]] = {}
        self._processed = 0
        self._stopped = False
        self._obs = obs
        self._observed = obs.enabled
        self._mode = EngineMode.parse(mode)

    @property
    def mode(self) -> EngineMode:
        """The engine's configured advancement mode.

        The kernel's own dispatch is mode-independent (it is the
        fallback path either way); the mode is carried here so layers
        that only see the engine can report which path produced a run.
        """
        return self._mode

    def set_observability(self, obs) -> None:
        """Attach (or detach, with ``NULL_OBS``) an observability context.

        Attaching is observation-only: it changes which counters and hook
        events are recorded, never the dispatch order or clock -- the
        determinism property tests pin this.
        """
        self._obs = obs
        self._observed = obs.enabled

    @property
    def now(self) -> int:
        """Current simulated time in macroticks."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events dispatched so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def register(self, kind: EventKind,
                 handler: Callable[["SimulationEngine", Event], None]) -> None:
        """Register a handler for an event kind.

        Multiple handlers for one kind run in registration order.
        """
        self._handlers.setdefault(kind, []).append(handler)

    def schedule(self, time: int, kind: EventKind, payload: object = None) -> Event:
        """Schedule an event at absolute macrotick ``time``.

        Args:
            time: Absolute time; must be ``>= now``.
            kind: Event kind.
            payload: Handler-defined data.

        Returns:
            The scheduled :class:`Event`.

        Raises:
            TypeError: If ``time`` is not an integer -- the kernel is
                integer-macrotick by contract, and silently truncating a
                float here would hide unit bugs upstream (see
                ``MacrotickClock.local_time`` for the quantization rule).
            ValueError: If ``time`` lies in the past.
        """
        if not isinstance(time, int) or isinstance(time, bool):
            raise TypeError(
                f"event time must be an integer macrotick, got "
                f"{type(time).__name__} {time!r}"
            )
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        event = Event(time=time, kind=kind, sequence=next(self._sequence),
                      payload=payload)
        heapq.heappush(self._queue, (event.sort_key(), event))
        if self._observed:
            self._obs.inc("engine.events_scheduled")
            self._obs.set_gauge("engine.queue_depth", len(self._queue))
        return event

    def schedule_in(self, delay: int, kind: EventKind, payload: object = None) -> Event:
        """Schedule an event ``delay`` macroticks from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, kind, payload)

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    def step(self) -> Optional[Event]:
        """Dispatch the single earliest event.

        Returns:
            The dispatched event, or ``None`` if the queue is empty.
        """
        if not self._queue:
            return None
        __, event = heapq.heappop(self._queue)
        self._now = event.time
        self._processed += 1
        if self._observed:
            return self._step_observed(event)
        for handler in self._handlers.get(event.kind, ()):
            handler(self, event)
        return event

    def _step_observed(self, event: Event) -> Event:
        """Instrumented dispatch: counters, per-kind timing, hook event."""
        obs = self._obs
        kind_name = event.kind.name
        started_ns = obs.now_ns()
        for handler in self._handlers.get(event.kind, ()):
            handler(self, event)
        obs.observe_ns(f"engine.handler.{kind_name}",
                       obs.now_ns() - started_ns)
        obs.inc("engine.events_dispatched")
        obs.inc(f"engine.dispatch.{kind_name}")
        obs.set_gauge("engine.queue_depth", len(self._queue))
        obs.emit("engine.dispatch", time=event.time, kind=kind_name,
                 sequence=event.sequence)
        return event

    def run_until(self, horizon: int, max_events: Optional[int] = None) -> int:
        """Run until the clock passes ``horizon`` or the queue drains.

        Events scheduled exactly at ``horizon`` are still dispatched;
        the first event strictly beyond it is left queued.

        Args:
            horizon: Inclusive time bound in macroticks.
            max_events: Optional safety cap on dispatched events.

        Returns:
            Number of events dispatched during this call.
        """
        dispatched = 0
        self._stopped = False
        while self._queue and not self._stopped:
            key, event = self._queue[0]
            if event.time > horizon:
                break
            if max_events is not None and dispatched >= max_events:
                break
            self.step()
            dispatched += 1
        if self._now < horizon and not self._stopped:
            # Advance the clock to the horizon even if the queue drained
            # early, so callers can rely on `now` reflecting elapsed time.
            self._now = horizon
        return dispatched

    def run_to_completion(self, max_events: int = 10_000_000) -> int:
        """Run until the queue is empty (bounded by ``max_events``).

        Raises:
            RuntimeError: If the event cap is hit, which almost always
                indicates a handler rescheduling itself unconditionally.
        """
        dispatched = 0
        self._stopped = False
        while self._queue and not self._stopped:
            if dispatched >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; likely a "
                    f"self-rescheduling handler loop"
                )
            self.step()
            dispatched += 1
        return dispatched
