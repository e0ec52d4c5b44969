"""Structured event-hook bus.

A hook is a named, schema-light event ("slack.promise", "engine.cycle"
...) carrying a flat field dict.  Subscribers are observation-only: the
bus hands them the field dict and ignores anything they return, and by
contract they must not mutate simulation state -- the determinism
property tests verify that attaching subscribers leaves trace digests
and counter values byte-identical.

Emission cost when nobody listens is one attribute read and one ``if``
(the bus keeps a ``has_subscribers`` flag), and call sites in truly hot
loops additionally guard on ``obs.enabled`` so the disabled-observability
path never even builds the field dict.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["HookBus", "HookRecorder"]

#: Subscriber signature: (event_name, fields) -> None.
HookSubscriber = Callable[[str, Mapping[str, object]], None]


class HookBus:
    """Dispatches named events to per-event and wildcard subscribers."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[HookSubscriber]] = {}
        self._wildcard: List[HookSubscriber] = []
        self.has_subscribers = False

    def subscribe(self, event: str, subscriber: HookSubscriber) -> None:
        """Listen to one event name.  Subscribers run in subscription order."""
        self._subscribers.setdefault(event, []).append(subscriber)
        self.has_subscribers = True

    def subscribe_all(self, subscriber: HookSubscriber) -> None:
        """Listen to every event (tracing / JSONL capture)."""
        self._wildcard.append(subscriber)
        self.has_subscribers = True

    def emit(self, event: str, fields: Mapping[str, object]) -> None:
        """Dispatch one event.  No-op without subscribers."""
        if not self.has_subscribers:
            return
        for subscriber in self._subscribers.get(event, ()):
            subscriber(event, fields)
        for subscriber in self._wildcard:
            subscriber(event, fields)


class HookRecorder:
    """A subscriber that records every event it sees (tests, exports).

    Attach with ``bus.subscribe_all(recorder)`` or per event with
    ``bus.subscribe(name, recorder)``.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        self.events: List[Tuple[str, Dict[str, object]]] = []
        self._limit = limit

    def __call__(self, event: str, fields: Mapping[str, object]) -> None:
        if self._limit is not None and len(self.events) >= self._limit:
            return
        self.events.append((event, dict(fields)))

    def __len__(self) -> int:
        return len(self.events)

    def names(self) -> List[str]:
        """Event names in emission order."""
        return [name for name, __ in self.events]

    def of(self, event: str) -> List[Dict[str, object]]:
        """Field dicts of one event name, in emission order."""
        return [fields for name, fields in self.events if name == event]
