"""Whole-cycle vectorized engine over the compiled round.

The stepper (:mod:`repro.timeline.stepper`) already skips provably-idle
queries, but it still executes each owned step through the interpreter's
slot body -- one fault draw, one trace append, one outcome callback per
transmission -- and it abandons the fast path entirely the moment the
idle proof fails (e.g. CoEfficient's open-loop redundancy copies keep
the retransmission heap non-empty for most of a faulty run).

:class:`VectorizedStepper` batches instead.  Each segment of each cycle
is evaluated in two phases:

- **Phase A (decide):** every policy query of the segment runs in the
  interpreter's exact order -- slot ascending, channels in pair order
  within a slot (static), full per-channel arbitration (dynamic) -- and
  the planned transmissions are collected with their precomputed
  ``[start, end)`` windows.  Physical validation (slot fit, generation
  time) happens here, raising the interpreter's exact errors.
- **Phase B (settle):** fault verdicts are drawn for the whole plan at
  once (one batch per channel from the injector's fault column when
  the oracle supports it), the plan goes to the trace as one block
  (:meth:`~repro.sim.trace.TraceRecorder.record_batch`; no
  :class:`~repro.sim.trace.FrameRecord` is built on this path), and
  the settled segment goes to the policy in one
  :meth:`~repro.protocol.policy.SchedulerPolicy.on_outcome` call, its
  attempts in interpreter order (the interpreter reports each attempt
  alone, as a batch of one).

Splitting the phases is sound only when the policy promises, via
:meth:`~repro.protocol.policy.SchedulerPolicy.decisions_are_outcome_free`,
that no phase-A answer -- a slot decision or an arrival admission --
reads state phase B mutates.  Open-loop policies (the paper's Theorem-1
regime) qualify; feedback ARQ does not and runs on the inherited
stepper/interpreter path unchanged.

Batch boundaries
----------------

A batch is one segment of one cycle, settled once at its end.  The
engine delegates to the inherited stepper, and through it the
interpreter, only when a phase-split precondition fails:

- the policy does not promise outcome-free decisions (feedback mode);
- the dynamic segment with ``gNumberOfMinislots == 0`` (interpreter
  no-op, delegated verbatim).

Host arrivals landing *inside* the static segment window are delivered
at the action point of the first slot covering their release -- the
interpreter's exact interleaving of arrivals and queries -- and the
segment's outcomes are still settled once, after its last slot.  This
is the settle-once rule, and its proof is the outcome-free promise
itself: ``repro check`` proves it over ``on_arrival`` as well as the
slot decisions (``DECISION_ENTRIES``), so no arrival reads state an
outcome writes.  CoEfficient keeps it that way by consuming a slack
promise when the retransmission is committed to the bus, a decision,
not on its outcome: the ``try_promise`` of a mid-segment arrival reads
the same ledger on every engine.

The dynamic segment queries only the slots the policy names live
(:meth:`~repro.protocol.policy.SchedulerPolicy.live_dynamic_slots`).
Every other slot answers ``None`` and costs exactly one minislot, so
the walk advances over it arithmetically, keeping the pLatestTx gate
and the final policy clock stamp.

The batch geometry itself -- which (channel, slot) pairs are owned, the
action-point offsets, the slot ordering -- comes from the
:class:`~repro.timeline.compiler.CompiledRound` static-step view, whose
agreement with the flat schedule arrays is independently checked by the
FRS113 verification rule (:mod:`repro.verify.round_checks`).

Fault-draw order
----------------

The interpreter consults the fault oracle in slot-major order,
interleaving channels.  The per-channel batches here are draw-order
compatible because every provided injector keeps an independent RNG
stream (and fault column or burst state) per channel, so splitting the
interleaved sequence into per-channel subsequences consumes each stream
identically (see
:meth:`~repro.faults.injector.TransientFaultInjector.batch`).  An
oracle without a ``batch`` method is consulted scalar-wise in the
interpreter's exact interleaved order, which is correct for *any*
stateful oracle.

The differential-fuzz suite (``tests/sim/test_engine_fuzz.py``) holds
this engine byte-identical, via :func:`~repro.sim.trace.trace_digest`,
to the interpreter oracle across generated scenarios; the equivalence
scenarios in ``tests/sim/test_trace_equivalence.py`` pin the named
corner cases.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.protocol.channel import Channel, ChannelSet
from repro.protocol.cycle import CycleLayout
from repro.protocol.dynamic_segment import DynamicSegmentEngine
from repro.protocol.frame import PendingFrame, frame_duration_mt
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.policy import SchedulerPolicy
from repro.protocol.static_segment import StaticSegmentEngine
from repro.obs.observability import NULL_OBS, ObsLike
from repro.sim.trace import TraceRecorder, TransmissionOutcome
from repro.timeline.compiler import CompiledRound
from repro.timeline.stepper import TimelineStepper

__all__ = ["VectorizedStepper"]

Deliver = Callable[[int], None]

#: One planned transmission: (lane, slot_id, start_mt, end_mt, pending),
#: where ``lane`` indexes the cluster's channels in pair order.
_Planned = Tuple[int, int, int, int, PendingFrame]


class _OwnedStep(NamedTuple):
    """A compiled :class:`~repro.timeline.compiler.StaticStep` whose
    entries carry each owning channel's lane instead of its frame."""

    slot_id: int
    action_offset_mt: int
    entries: Tuple[Tuple[Channel, int], ...]


class VectorizedStepper(TimelineStepper):
    """Advances cycles with phase-split, batched segment evaluation.

    Args:
        compiled: The policy's compiled round.
        params: Cluster parameters.
        layout: Cycle time geometry.
        channels: The cluster's live channel set.
        policy: The scheduling policy under test.
        static_engine: Interpreter static engine (delegation target).
        dynamic_engine: Interpreter dynamic engine (delegation target).
        next_release_mt: Peek at the earliest undelivered host release.
        corrupts: The cluster's fault oracle; batched per channel when it
            exposes a ``batch`` method, consulted scalar-wise in
            interpreter order otherwise.
        trace: The cluster's trace recorder (batch flush target).
        obs: Observability context for the batch/fallback counters.
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
        next_release_mt: Callable[[], Optional[int]],
        corrupts: Callable[[Channel, int, int], bool],
        trace: TraceRecorder,
        obs: ObsLike = NULL_OBS,
    ) -> None:
        super().__init__(compiled, params, layout, channels, policy,
                         static_engine, dynamic_engine, next_release_mt, obs)
        self._corrupts = corrupts
        self._trace = trace
        self._batch_faults = getattr(corrupts, "batch", None)
        self._duration_memo: Dict[int, int] = {}
        self._pairs = list(channels.pairs())
        # Per-lane channel and name, looked up by list index instead of
        # hashing the Channel enum per frame.
        self._lane_channels = [channel for channel, __ in self._pairs]
        self._lane_names = tuple(channel.value
                                 for channel in self._lane_channels)
        lane_of = {channel: lane
                   for lane, channel in enumerate(self._lane_channels)}
        #: The compiled round's owned static steps, per pattern cycle.
        self._owned_steps = [
            tuple(_OwnedStep(step.slot_id, step.action_offset_mt,
                             tuple((channel, lane_of[channel])
                                   for channel, __ in step.entries))
                  for step in compiled.static_steps(cycle))
            for cycle in range(compiled.pattern_length)
        ]
        #: Segment batches settled through the phase-split path.
        self.vectorized_batches = 0
        #: Cycles with at least one segment delegated to the stepper or
        #: interpreter (feedback mode).
        self.scalar_fallback_cycles = 0
        self._last_fallback_cycle = -1

    # ------------------------------------------------------------------
    # Static segment
    # ------------------------------------------------------------------

    def run_static_segment(self, cycle: int, deliver: Deliver) -> bool:
        """Execute the static segment of ``cycle`` as one batch.

        Returns:
            ``True`` if the segment settled through the phase-split
            batch, otherwise the inherited stepper's verdict.
        """
        policy = self._policy
        if not policy.decisions_are_outcome_free():
            self._note_fallback(cycle)
            return super().run_static_segment(cycle, deliver)
        cycle_start = self._layout.cycle_start(cycle)
        first_action = cycle_start + self._action_offset
        last_action = first_action + (self._n_slots - 1) * self._slot_mt
        release = self._next_release_mt()
        if release is not None and release <= first_action:
            # The interpreter delivers these before slot 1's query, i.e.
            # before any decision of the segment -- safe to flush now.
            deliver(first_action)
            release = self._next_release_mt()
        self._channels.reset_counters()
        if (policy.static_idle_is_noop()
                and (release is None or release > last_action)):
            # No mid-segment arrival can add slack work, so the idle
            # proof holds for the whole segment and only owned steps
            # need queries.
            plan, final_clock = self._plan_static_owned(cycle, cycle_start)
            self._flush(cycle, plan, "static")
        else:
            final_clock = self._run_static_chunked(cycle, cycle_start,
                                                   deliver)
        policy.note_time(final_clock)
        for __, counter in self._pairs:
            counter.jump_to(self._n_slots + 1)
        self.vectorized_batches += 1
        if self._obs.enabled:
            self._obs.inc("engine.vectorized_batches")
        return True

    def _plan_static_owned(self, cycle: int,
                           cycle_start: int) -> Tuple[List[_Planned], int]:
        """Phase A over owned steps only (idle-noop proof in force).

        The idle proof cannot be revoked mid-segment here: only arrivals
        (excluded by the caller) and feedback failures (excluded by the
        outcome-free promise) ever add slack-stealable work, and queries
        only drain it.
        """
        policy = self._policy
        steps = self._owned_steps[cycle % len(self._owned_steps)]
        plan: List[_Planned] = []
        last_action = (cycle_start + (self._n_slots - 1) * self._slot_mt
                       + self._action_offset)
        final_clock = last_action
        for slot_id, action_offset, entries in steps:
            action_point = cycle_start + action_offset
            for channel, lane in entries:
                pending = policy.static_frame_for(
                    channel, cycle, slot_id, action_point)
                if pending is None:
                    final_clock = action_point
                    continue
                end = self._validate_static(pending, slot_id, action_point)
                plan.append((lane, slot_id, action_point, end, pending))
                final_clock = end
        if (not steps or steps[-1].slot_id != self._n_slots
                or len(steps[-1].entries) < len(self._pairs)):
            # Mirror the stepper's trailing stamp: the interpreter's last
            # static action would be slot N's idle query.
            final_clock = last_action
        return plan, final_clock

    def _run_static_chunked(self, cycle: int, cycle_start: int,
                            deliver: Deliver) -> int:
        """Dense phase A over every (slot, channel) pair, settled once.

        This is the batch the stepper cannot offer: when retransmission
        or slack-stealing work exists, *every* static query is
        meaningful, so all of them run.  Host arrivals are delivered at
        the action point of the first slot covering their release, the
        interpreter's exact interleaving of arrivals and queries; the
        outcome-free promise covers ``on_arrival``, so the plan is
        settled once, after the last slot.  Returns the interpreter's
        end-of-segment policy clock.
        """
        policy = self._policy
        channels = self._lane_channels
        plan: List[_Planned] = []
        final_clock = cycle_start + self._action_offset
        action_point = final_clock
        release = self._next_release_mt()
        for slot_id in range(1, self._n_slots + 1):
            if release is not None and release <= action_point:
                deliver(action_point)
                release = self._next_release_mt()
            for lane, channel in enumerate(channels):
                pending = policy.static_frame_for(
                    channel, cycle, slot_id, action_point)
                if pending is None:
                    final_clock = action_point
                    continue
                end = self._validate_static(pending, slot_id, action_point)
                plan.append((lane, slot_id, action_point, end, pending))
                final_clock = end
            action_point += self._slot_mt
        self._flush(cycle, plan, "static")
        return final_clock

    def _validate_static(self, pending: PendingFrame, slot_id: int,
                         action_point: int) -> int:
        """The interpreter's physical checks, raising its exact errors."""
        payload_bits = pending.frame.payload_bits
        duration = self._duration_memo.get(payload_bits)
        if duration is None:
            duration = self._duration(payload_bits)
        slot_end = action_point - self._action_offset + self._slot_mt
        if action_point + duration > slot_end:
            raise ValueError(
                f"policy bug: frame {pending.message_id} "
                f"({pending.total_bits} bits, {duration} MT) does not fit "
                f"static slot {slot_id} "
                f"({self._params.gd_static_slot_mt} MT)"
            )
        if pending.generation_time_mt > action_point:
            raise ValueError(
                f"policy bug: frame {pending.message_id}#{pending.instance} "
                f"transmitted at t={action_point} before its generation "
                f"at t={pending.generation_time_mt}"
            )
        return action_point + duration

    # ------------------------------------------------------------------
    # Dynamic segment
    # ------------------------------------------------------------------

    def run_dynamic_segment(self, cycle: int, deliver: Deliver) -> bool:
        """Execute the dynamic segment of ``cycle`` as one batch.

        Returns:
            ``True`` unless the segment was delegated to the interpreter
            arbitration loop (feedback mode).
        """
        params = self._params
        dynamic = self._dynamic_engine
        policy = self._policy
        if params.g_number_of_minislots == 0:
            dynamic.execute_cycle(cycle, deliver)
            return True
        segment_start, __ = self._layout.dynamic_segment_window(cycle)
        deliver(segment_start)
        live = policy.live_dynamic_slots()
        dynamic.last_cycle_results = []
        if live == ():
            queried = min(params.g_number_of_minislots,
                          params.effective_latest_tx)
            policy.note_time(
                self._layout.minislot_start(cycle, queried - 1))
            return True
        if not policy.decisions_are_outcome_free():
            self._note_fallback(cycle)
            dynamic.execute_cycle(cycle, deliver)
            if self._obs.enabled:
                self._obs.inc("engine.heap_events",
                              len(dynamic.last_cycle_results))
            return False
        slots: Sequence[int] = live if live is not None else range(
            params.first_dynamic_slot_id, params.last_dynamic_slot_id + 1)
        plan, final_clock = self._plan_dynamic(segment_start, slots)
        self._flush(cycle, plan, "dynamic")
        if final_clock is not None:
            policy.note_time(final_clock)
        self.vectorized_batches += 1
        if self._obs.enabled:
            self._obs.inc("engine.vectorized_batches")
        return True

    def _plan_dynamic(
        self, segment_start: int, live: Sequence[int],
    ) -> Tuple[List[_Planned], Optional[int]]:
        """Phase A of the minislot-counting arbitration, per channel.

        Mirrors ``DynamicSegmentEngine._arbitrate_channel`` step for
        step -- query gating on pLatestTx, the one-minislot idle charge,
        the hold path -- but queries only the ``live`` slots (ascending)
        and collects transmissions instead of settling them.  Every slot
        between two live ones answers ``None`` and consumes one
        minislot, so a run of them advances the walk arithmetically and
        stamps the clock its last queried slot would have carried.
        Channel A's queries still precede channel B's (they share the
        policy's pools); only the *outcomes* are deferred, which the
        outcome-free promise makes invisible.
        """
        params = self._params
        policy = self._policy
        latest_tx = params.effective_latest_tx
        first_slot = params.first_dynamic_slot_id
        last_slot = params.last_dynamic_slot_id
        total = params.g_number_of_minislots
        minislot_mt = params.gd_minislot_mt
        action_offset = params.gd_minislot_action_point_offset_mt
        plan: List[_Planned] = []
        final_clock: Optional[int] = None
        for lane, (channel, slot_counter) in enumerate(self._pairs):
            slot_counter.jump_to(first_slot)
            elapsed = 0
            slot_id = first_slot
            # The sentinel after the last slot walks the trailing idle run.
            for live_slot in chain(live, (last_slot + 1,)):
                if elapsed >= total:
                    break
                if live_slot != slot_id:
                    idle = min(live_slot - slot_id, total - elapsed)
                    if elapsed < latest_tx:
                        final_clock = segment_start + (
                            min(elapsed + idle, latest_tx) - 1) * minislot_mt
                    elapsed += idle
                    slot_id += idle
                    if elapsed >= total:
                        break
                if slot_id > last_slot:
                    break
                start_mt = segment_start + elapsed * minislot_mt
                pending: Optional[PendingFrame] = None
                if elapsed < latest_tx:
                    pending = policy.dynamic_frame_for(
                        channel, slot_id, start_mt, total - elapsed)
                    final_clock = start_mt
                slot_id += 1
                if pending is None:
                    elapsed += 1
                    continue
                payload_bits = pending.frame.payload_bits
                needed = params.minislots_for_bits(payload_bits)
                if needed > total - elapsed:
                    policy.on_dynamic_hold(pending, channel)
                    elapsed += 1
                    continue
                action_start = start_mt + action_offset
                end = action_start + self._duration(payload_bits)
                plan.append((lane, slot_id - 1, action_start, end, pending))
                final_clock = end
                elapsed += needed
        return plan, final_clock

    # ------------------------------------------------------------------
    # Phase B
    # ------------------------------------------------------------------

    def _flush(self, cycle: int, plan: List[_Planned],
               segment: str) -> None:
        """Settle a segment plan: fault draws, one trace block, and one
        ``on_outcome`` call for the whole segment."""
        if not plan:
            return
        bits = [entry[4].frame.total_bits for entry in plan]
        verdicts = self._fault_verdicts(plan, bits)
        self._trace.record_batch(plan, cycle, segment, self._lane_names,
                                 bits, verdicts)
        channels = self._lane_channels
        corrupted = TransmissionOutcome.CORRUPTED
        delivered = TransmissionOutcome.DELIVERED
        self._policy.on_outcome(segment, [
            (pending, channels[lane], corrupted if corrupt else delivered,
             end)
            for (lane, __, ___, end, pending), corrupt in zip(plan, verdicts)])

    def _fault_verdicts(self, plan: List[_Planned],
                        bits: List[int]) -> List[bool]:
        """Corruption verdicts for a plan, draw-order exact.

        ``bits`` holds each entry's total frame bits.  With a batching
        injector, the plan is split into per-channel subsequences (each
        channel owns an independent RNG stream, so the split consumes
        every stream exactly as the interpreter's interleaved consults
        would).  Without one, the oracle is called scalar-wise in the
        interpreter's exact order, which is correct for arbitrary
        stateful oracles.
        """
        channels = self._lane_channels
        batch = self._batch_faults
        if batch is None:
            corrupts = self._corrupts
            return [corrupts(channels[entry[0]], total_bits, entry[2])
                    for entry, total_bits in zip(plan, bits)]
        by_lane: List[List[int]] = [[] for __ in channels]
        for index, entry in enumerate(plan):
            by_lane[entry[0]].append(index)
        verdicts = [False] * len(plan)
        for channel, indices in zip(channels, by_lane):
            if indices:
                drawn = batch(channel, [bits[index] for index in indices])
                for index, verdict in zip(indices, drawn):
                    verdicts[index] = verdict
        return verdicts

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _duration(self, payload_bits: int) -> int:
        duration = self._duration_memo.get(payload_bits)
        if duration is None:
            duration = frame_duration_mt(payload_bits, self._params)
            self._duration_memo[payload_bits] = duration
        return duration

    def _note_fallback(self, cycle: int) -> None:
        if cycle != self._last_fallback_cycle:
            self._last_fallback_cycle = cycle
            self.scalar_fallback_cycles += 1
            if self._obs.enabled:
                self._obs.inc("engine.scalar_fallback_cycles")
