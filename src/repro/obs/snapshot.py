"""Mergeable, picklable observability snapshots.

A campaign gives every seeded run its own isolated observability
context (so per-seed counters are attributable and nothing leaks across
seeds or across successive campaigns), then needs to combine those
per-seed views back into one aggregate.  :class:`ObsSnapshot` is the
value type that makes that safe:

- it is a plain-data capture of one context (counters, gauges,
  profiler sections, and optionally the hook events the run emitted),
  so it pickles cleanly across ``multiprocessing`` workers and into the
  on-disk campaign cache;
- :meth:`ObsSnapshot.merged_with` combines snapshots **without touching
  any live registry**; merging per-seed snapshots in seed order yields
  exactly the totals a single shared context would have accumulated
  (counters add, gauges keep the last-written value and the max of
  maxima, profiler sections accumulate);
- :meth:`ObsSnapshot.apply_to` folds a snapshot into a live
  :class:`~repro.obs.observability.Observability` and replays the
  captured hook events on its bus, so parent-level subscribers (e.g.
  the CLI's JSONL event capture) see the same events a shared context
  would have delivered.

Counters and gauges are deterministic; profiler sections are wall clock and excluded from :meth:`ObsSnapshot.deterministic`, the
subset replay/equivalence checks compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.hooks import HookRecorder
from repro.obs.observability import Observability

__all__ = ["ObsSnapshot"]


@dataclass
class ObsSnapshot:
    """Plain-data capture of one observability context (see module doc)."""

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, Dict[str, float]] = field(default_factory=dict)
    profile: Dict[str, Dict[str, int]] = field(default_factory=dict)
    events: List[Tuple[str, Dict[str, object]]] = field(default_factory=list)

    @classmethod
    def capture(cls, obs: Observability,
                events: Optional[HookRecorder] = None) -> "ObsSnapshot":
        """Snapshot a live context (plus a recorder's captured events)."""
        snap = obs.snapshot()
        return cls(
            counters=dict(snap.get("counters", {})),
            gauges={name: dict(data)
                    for name, data in snap.get("gauges", {}).items()},
            profile={name: dict(data)
                     for name, data in snap.get("profile", {}).items()},
            events=[(name, dict(fields))
                    for name, fields in (events.events if events else [])],
        )

    def merged_with(self, other: "ObsSnapshot") -> "ObsSnapshot":
        """Combine two snapshots; ``other`` is the *later* one.

        Counter and profile totals add; gauges take ``other``'s
        last-written value where it wrote one; events concatenate in
        order.  Neither input is mutated.
        """
        merged = ObsSnapshot(
            counters=dict(self.counters),
            gauges={name: dict(data) for name, data in self.gauges.items()},
            profile={name: dict(data)
                     for name, data in self.profile.items()},
            events=list(self.events),
        )
        for name, value in other.counters.items():
            merged.counters[name] = merged.counters.get(name, 0) + value
        for name, data in other.gauges.items():
            mine = merged.gauges.get(name)
            if mine is None:
                merged.gauges[name] = dict(data)
            else:
                merged.gauges[name] = {
                    "value": data["value"],
                    "max": max(mine["max"], data["max"]),
                }
        for name, data in other.profile.items():
            mine = merged.profile.get(name)
            if mine is None:
                merged.profile[name] = dict(data)
            else:
                merged.profile[name] = {
                    "count": mine["count"] + data["count"],
                    "total_ns": mine["total_ns"] + data["total_ns"],
                }
        merged.events.extend((name, dict(fields))
                             for name, fields in other.events)
        return merged

    @staticmethod
    def merge_all(snapshots: Sequence["ObsSnapshot"]) -> "ObsSnapshot":
        """Fold a sequence of snapshots left to right (seed order)."""
        merged = ObsSnapshot()
        for snapshot in snapshots:
            merged = merged.merged_with(snapshot)
        return merged

    def apply_to(self, obs, replay_events: bool = True) -> None:
        """Fold this snapshot into a live context.

        Metrics merge first, then the captured hook events replay on the
        context's bus (subscribers are observation-only by contract, so
        the coarser interleaving is unobservable to well-behaved ones).
        No-op on a disabled context.
        """
        if not obs.enabled:
            return
        obs.registry.merge_snapshot({"counters": self.counters,
                                     "gauges": self.gauges})
        obs.profiler.merge(self.profile)
        if replay_events:
            for event, fields in self.events:
                obs.hooks.emit(event, fields)

    def deterministic(self) -> Dict[str, Dict]:
        """Counters and gauges only -- the replay-comparable subset."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": {name: dict(data)
                       for name, data in sorted(self.gauges.items())},
        }
