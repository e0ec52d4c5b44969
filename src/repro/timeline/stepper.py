"""Compiled-timeline fast path over a :class:`CompiledRound`.

The event interpreter asks the policy one question per (channel, slot)
pair of every cycle -- ~2 x gNumberOfStaticSlots heap-ordered queries per
cycle even when the answer is a foregone conclusion.  The stepper walks
the *compiled* round instead: it executes exactly the owned static steps
and skips the idle (channel, slot) queries whenever the policy proves,
via :meth:`~repro.protocol.policy.SchedulerPolicy.static_idle_is_noop`
and an empty :meth:`~repro.protocol.policy.SchedulerPolicy.live_dynamic_slots`,
that those queries would be side-effect-free ``None``\\ s.

The moment a proof obligation fails -- a retransmission is planned, a
slack-stealable backlog appears, an arrival lands mid-segment and
changes the policy's state -- the stepper falls back to the interpreter
*for the remainder of the segment*, resuming at exactly the slot the
interpreter would next have queried.  Fallback is therefore not an
error path but the correctness anchor: the differential trace tests
(`tests/sim/test_trace_equivalence.py`) prove the two modes
byte-identical, with the interpreter kept as the oracle.

Exactness argument (the invariant each skip preserves):

- The delivery callback's time argument is only a pop threshold; the
  policy never observes it.  Equivalence therefore requires exactly
  that the *set of arrivals delivered before each effective policy
  query* matches the interpreter, which delivers before slot ``s`` all
  arrivals released at or before ``s``'s action point.
- The stepper delivers each arrival batch at the action point of the
  first slot the interpreter would have delivered it at, then re-checks
  the idle-noop proof; if delivery invalidated it, the interpreter
  resumes from that same slot -- the skipped earlier slots were queried
  by the interpreter *before* the delivery, under a proof that they
  answered ``None`` without side effects.
- Within an owned step, every channel that owns the slot runs through
  the interpreter's own slot body
  (:meth:`~repro.protocol.static_segment.StaticSegmentEngine.execute_slot`),
  so records and outcome feedback are produced by the same code in both
  modes; the co-channel's idle query is skipped only while the proof
  still holds (outcome feedback, e.g. a planned retransmission, revokes
  it mid-step).
"""

from __future__ import annotations

from typing import Callable

from repro.protocol.channel import ChannelSet
from repro.protocol.cycle import CycleLayout
from repro.protocol.dynamic_segment import DynamicSegmentEngine
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.policy import SchedulerPolicy
from repro.protocol.static_segment import StaticSegmentEngine
from repro.obs.observability import NULL_OBS, ObsLike
from repro.timeline.compiler import CompiledRound, StaticStep

__all__ = ["TimelineStepper"]

Deliver = Callable[[int], None]


class TimelineStepper:
    """Advances communication cycles over compiled timeline arrays.

    Args:
        compiled: The policy's compiled round.
        params: Cluster parameters.
        layout: Cycle time geometry.
        channels: The cluster's live channel set (slot counters are kept
            consistent with interpreter state across fallbacks).
        policy: The scheduling policy under test.
        static_engine: Interpreter static engine (fallback + slot body).
        dynamic_engine: Interpreter dynamic engine (fallback).
        next_release_mt: Peek at the earliest undelivered host release,
            ``None`` when the sources are exhausted (the cluster's
            arrival multiplexer).
        obs: Observability context for the fast-path/heap split counters.
    """

    def __init__(
        self,
        compiled: CompiledRound,
        params: SegmentGeometry,
        layout: CycleLayout,
        channels: ChannelSet,
        policy: SchedulerPolicy,
        static_engine: StaticSegmentEngine,
        dynamic_engine: DynamicSegmentEngine,
        next_release_mt: Callable[[], int | None],
        obs: ObsLike = NULL_OBS,
    ) -> None:
        self._round = compiled
        self._params = params
        self._layout = layout
        self._channels = channels
        self._policy = policy
        self._static_engine = static_engine
        self._dynamic_engine = dynamic_engine
        self._next_release_mt = next_release_mt
        self._obs = obs
        self._slot_mt = params.gd_static_slot_mt
        self._action_offset = params.gd_action_point_offset_mt
        self._n_slots = params.g_number_of_static_slots

    # ------------------------------------------------------------------
    # Static segment
    # ------------------------------------------------------------------

    def run_static_segment(self, cycle: int, deliver: Deliver) -> bool:
        """Execute the static segment of ``cycle``.

        Returns:
            ``True`` if the whole segment ran on the fast path, ``False``
            if any part fell back to the event interpreter.
        """
        policy = self._policy
        if not policy.static_idle_is_noop():
            self._fallback_static(cycle, deliver, first_slot=1)
            return False

        self._channels.reset_counters()
        cycle_start = self._layout.cycle_start(cycle)
        pos = 1  # first slot whose interpreter query has not yet happened
        for step in self._round.static_steps(cycle):
            action_point = cycle_start + step.action_offset_mt
            resumed = self._deliver_for_window(
                cycle, cycle_start, pos, action_point, deliver)
            if resumed is not None:
                self._fallback_static(cycle, deliver, first_slot=resumed)
                return False
            self._execute_step(cycle, step, action_point)
            pos = step.slot_id + 1
            if not policy.static_idle_is_noop():
                if pos <= self._n_slots:
                    self._fallback_static(cycle, deliver, first_slot=pos)
                    return False
                break
        else:
            # Trailing idle slots: the interpreter still delivers there.
            last_action = (cycle_start + (self._n_slots - 1) * self._slot_mt
                           + self._action_offset)
            resumed = self._deliver_for_window(
                cycle, cycle_start, pos, last_action, deliver)
            if resumed is not None:
                self._fallback_static(cycle, deliver, first_slot=resumed)
                return False
        if any(self._round.owner(channel, cycle, self._n_slots) is None
               for channel, __ in self._channels.pairs()):
            # The interpreter's last static action is the idle query of
            # slot N on the later channel, which stamps the policy clock
            # with that slot's action point; replicate the stamp.
            policy.note_time(cycle_start + (self._n_slots - 1) * self._slot_mt
                             + self._action_offset)
        for __, counter in self._channels.pairs():
            counter.jump_to(self._n_slots + 1)
        return True

    def _deliver_for_window(self, cycle: int, cycle_start: int, pos: int,
                            until_action_mt: int,
                            deliver: Deliver) -> int | None:
        """Deliver arrivals due up to ``until_action_mt``, batch by batch.

        Each batch lands at the action point of the first slot the
        interpreter would have delivered it at; if a batch revokes the
        idle-noop proof, returns the slot the interpreter must resume
        from (``None`` while the fast path may continue).
        """
        policy = self._policy
        while True:
            release = self._next_release_mt()
            if release is None or release > until_action_mt:
                return None
            slot = max(pos, self._first_slot_at_or_after(release - cycle_start))
            slot = min(slot, self._n_slots)
            deliver(cycle_start + (slot - 1) * self._slot_mt
                    + self._action_offset)
            if not policy.static_idle_is_noop():
                return slot

    def _first_slot_at_or_after(self, phase_mt: int) -> int:
        """First slot whose action point is at or after an in-cycle phase."""
        if phase_mt <= self._action_offset:
            return 1
        return (phase_mt - self._action_offset
                + self._slot_mt - 1) // self._slot_mt + 1

    def _execute_step(self, cycle: int, step: StaticStep,
                      action_point: int) -> None:
        """Run one owned static step through the interpreter's slot body."""
        engine = self._static_engine
        policy = self._policy
        compiled = self._round
        for __, counter in self._channels.pairs():
            counter.jump_to(step.slot_id)
        for channel, __ in self._channels.pairs():
            if compiled.owner(channel, cycle, step.slot_id) is not None:
                engine.execute_slot(channel, cycle, step.slot_id, action_point)
            elif not policy.static_idle_is_noop():
                # Outcome feedback on the co-channel revoked the proof
                # (e.g. a retransmission was planned): this idle query is
                # now meaningful, so ask the interpreter's slot body.
                engine.execute_slot(channel, cycle, step.slot_id, action_point)

    def _fallback_static(self, cycle: int, deliver: Deliver,
                         first_slot: int) -> None:
        """Run slots ``first_slot..N`` through the event interpreter."""
        if self._obs.enabled:
            remaining = self._n_slots - first_slot + 1
            self._obs.inc("engine.heap_events",
                          remaining * len(self._channels))
        self._static_engine.execute_cycle(cycle, deliver,
                                          first_slot=first_slot)

    # ------------------------------------------------------------------
    # Dynamic segment
    # ------------------------------------------------------------------

    def run_dynamic_segment(self, cycle: int, deliver: Deliver) -> bool:
        """Execute the dynamic segment of ``cycle``.

        Returns:
            ``True`` if arbitration was provably idle and skipped,
            ``False`` if the interpreter's minislot loop ran.
        """
        dynamic = self._dynamic_engine
        if self._params.g_number_of_minislots == 0:
            dynamic.execute_cycle(cycle, deliver)
            return True
        segment_start, __ = self._layout.dynamic_segment_window(cycle)
        deliver(segment_start)
        if self._policy.live_dynamic_slots() == ():
            dynamic.last_cycle_results = []
            # An idle interpreter walk still queries one dynamic slot per
            # minislot up to the pLatestTx gate; its last query stamps
            # the policy clock with that minislot's start.
            queried = min(self._params.g_number_of_minislots,
                          self._params.effective_latest_tx)
            self._policy.note_time(
                self._layout.minislot_start(cycle, queried - 1))
            return True
        dynamic.execute_cycle(cycle, deliver)
        if self._obs.enabled:
            self._obs.inc("engine.heap_events",
                          len(dynamic.last_cycle_results))
        return False
