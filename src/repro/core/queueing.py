"""Shared queue/buffer mechanics for FlexRay scheduler policies.

Everything CoEfficient and the FSPEC baseline have in *common* lives
here, so that their benchmark differences are attributable to policy,
not plumbing:

- schedule-table construction (strategy chosen by the subclass);
- CHI static buffers (one per chunk per channel, overwrite semantics);
- per-frame-ID dynamic priority queues (peek/pop via the engine
  contract: pop in ``dynamic_frame_for``, restore in ``on_dynamic_hold``);
- a hard-aperiodic retransmission heap (EDF order);
- per-chunk delivery status used to cancel retransmissions that a
  redundant copy already satisfied (feedback mode only: an open-loop
  sender sends every copy, so it never reads the status).

Subclasses decide: the channel strategy, what happens in an idle static
slot (slack!), which channels serve dynamic traffic, and the
retransmission reaction to failures.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.protocol.channel import Channel
from repro.protocol.chi import PriorityOutputQueue, StaticBuffer
from repro.protocol.cluster import Cluster
from repro.protocol.frame import FrameKind, PendingFrame
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.policy import SchedulerPolicy, Settled
from repro.protocol.schedule import ScheduleTable
from repro.packing.frame_packing import PackingResult
from repro.sim.trace import TransmissionOutcome
from repro.timeline.compiler import CompiledRound, compile_round

__all__ = ["QueueingPolicyBase"]

#: Per-chunk delivery status values.
_PENDING, _DELIVERED = 0, 1

#: Prune the chunk-status map every this many cycles.
_STATUS_PRUNE_INTERVAL = 64

# A module global loads faster than an enum member looked up through
# its class; feedback runs compare one per settled attempt.
_OUTCOME_DELIVERED = TransmissionOutcome.DELIVERED


class QueueingPolicyBase(SchedulerPolicy):
    """Common mechanics; see module docstring.

    Retransmission model: FlexRay has no acknowledgements ("it does not
    support acknowledgement or retransmission schemes" -- Section I), so
    the paper's retransmissions are *open-loop planned copies*: message z
    is transmitted ``k_z + 1`` times per instance whether or not the
    first copy survived, and Theorem 1 prices exactly that.  The default
    here is therefore open-loop: copies are enqueued at arrival via the
    :meth:`redundancy_for_arrival` hook.  ``feedback=True`` switches to
    reactive ARQ (the sender's controller monitors the bus and retries
    only actual corruption) -- an extension the ablation benchmark
    compares against the paper's model.

    Args:
        packing: The packed workload (messages, chunk frames, IDs).
        reserve_retransmission_slot: Whether the first dynamic slot ID is
            reserved for retransmission traffic (shifting the dynamic
            messages' IDs up by one).
        feedback: Reactive-ARQ mode (see above).
        drop_expired_dynamic: Drop dynamic-queue messages once their
            deadline passed (real controllers would still send them;
            metrics count them missed either way).  Completion-mode
            experiments disable this so every instance eventually
            delivers and "running time" is well defined.
    """

    name = "queueing-base"

    def __init__(self, packing: PackingResult,
                 reserve_retransmission_slot: bool = True,
                 feedback: bool = False,
                 drop_expired_dynamic: bool = True) -> None:
        self._packing = packing
        self._reserve_retx = reserve_retransmission_slot
        self.feedback = feedback
        self.drop_expired_dynamic = drop_expired_dynamic
        self.params: Optional[SegmentGeometry] = None
        # The bound cluster's channels; the policy keeps no reference
        # to the cluster itself (see SchedulerPolicy.bind).
        self._channels: Tuple[Channel, ...] = ()
        self._table: Optional[ScheduleTable] = None
        self._round: Optional[CompiledRound] = None
        # (message_id, chunk) -> [(channel, slot_id), ...]
        self._placements: Dict[Tuple[str, int], List[Tuple[Channel, int]]] = {}
        # (message_id, chunk, channel) -> StaticBuffer
        self._buffers: Dict[Tuple[str, int, Channel], StaticBuffer] = {}
        # channel -> per pattern cycle {slot_id: StaticBuffer} of the
        # compiled round's owned static steps
        self._slot_buffers: Dict[Channel,
                                 Tuple[Dict[int, StaticBuffer], ...]] = {}
        self._pattern_length = 1
        # (message_id, chunk) -> the distinct buffers an arrival writes
        self._arrival_buffers: Dict[Tuple[str, int],
                                    Tuple[StaticBuffer, ...]] = {}
        # dynamic slot id -> queue
        self._dynamic_queues: Dict[int, PriorityOutputQueue] = {}
        # message_id -> dynamic slot id serving it (arrival routing)
        self._dynamic_slot_of: Dict[str, int] = {}
        self._retx_heap: List[tuple] = []  # (deadline, sequence, pending)
        self._retx_slot_id: Optional[int] = None
        self._dynamic_backlog = 0  # incremental count across all queues
        # (message_id, instance, chunk) -> (status, deadline)
        self._chunk_status: Dict[Tuple[str, int, int], Tuple[int, int]] = {}
        self._now_mt = 0
        self.counters: Dict[str, int] = {
            "primary_tx": 0, "retx_tx": 0, "dynamic_tx": 0,
            "slack_steals": 0, "retx_enqueued": 0, "retx_abandoned": 0,
            "stale_drops": 0,
        }

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def channel_strategy(self) -> str:
        """Channel strategy for the static schedule (subclass hook)."""
        raise NotImplementedError

    def serves_dynamic(self, channel: Channel) -> bool:
        """Whether a channel's dynamic segment serves traffic."""
        return True

    def on_bound(self) -> None:
        """Extra offline planning after the table exists (hook)."""

    def handle_failure(self, pending: PendingFrame, segment: str,
                       end_mt: int) -> None:
        """React to a corrupted transmission (feedback mode only, hook)."""

    def redundancy_for_arrival(self, pending: PendingFrame) -> int:
        """Open-loop copies to enqueue when an instance arrives (hook)."""
        return 0

    def admit_copy(self, pending: PendingFrame, now_mt: int) -> bool:
        """Whether one more open-loop copy of ``pending`` may be queued.

        Admission runs on the arriving instance itself: a copy carries
        the same message, deadline and payload, so it would get the same
        answer, and the copy is minted only once admitted.  Called once
        per planned copy.  The base answer is always yes (best-effort);
        CoEfficient overrides it with the selective-slack promise check.
        """
        return True

    def slack_frame_for(self, channel: Channel, cycle: int, slot_id: int,
                        action_point_mt: int) -> Optional[PendingFrame]:
        """What to send in an idle static slot (hook: slack stealing).

        The base policy leaves idle slots idle (the separate-scheduling
        behaviour the paper criticizes).
        """
        return None

    # ------------------------------------------------------------------
    # SchedulerPolicy: lifecycle
    # ------------------------------------------------------------------

    def bind(self, cluster: Cluster) -> None:
        self.params = cluster.params
        self._channels = tuple(cluster.channels)
        frames = self._packing.static_frames()
        self._table = self.params.build_schedule(
            frames, strategy=self.channel_strategy()
        )
        self._round = compile_round(
            self._table, self.params, list(self._channels), obs=self.obs
        )
        self._build_placements()
        self._build_dynamic_queues()
        self.on_bound()

    @property
    def table(self) -> ScheduleTable:
        """The static schedule (available after ``bind``)."""
        if self._table is None:
            raise RuntimeError("policy not bound to a cluster yet")
        return self._table

    def compiled_round(self) -> Optional[CompiledRound]:
        """The compiled communication round (available after ``bind``)."""
        return self._round

    @property
    def retransmission_slot_id(self) -> Optional[int]:
        """Dynamic slot ID reserved for retransmissions (if any)."""
        return self._retx_slot_id

    def _build_placements(self) -> None:
        for channel in (Channel.A, Channel.B):
            for assignment in self.table.assignments(channel):
                frame = assignment.frame
                key = (frame.message_id, frame.chunk)
                self._placements.setdefault(key, []).append(
                    (channel, assignment.slot_id)
                )
                buffer_key = (frame.message_id, frame.chunk, channel)
                if buffer_key not in self._buffers:
                    self._buffers[buffer_key] = StaticBuffer(assignment.slot_id)
        # An arrival writes each distinct buffer of its (message, chunk)
        # once: resolve them here rather than per arrival.
        for (message_id, chunk), placements in self._placements.items():
            channels = dict.fromkeys(channel for channel, __ in placements)
            self._arrival_buffers[(message_id, chunk)] = tuple(
                self._buffers[(message_id, chunk, channel)]
                for channel in channels)
        # A static query finds its slot's buffer with one lookup instead
        # of resolving the owner frame first.
        compiled = self._round
        assert compiled is not None
        self._pattern_length = compiled.pattern_length
        self._slot_buffers = {
            channel: tuple({} for __ in range(compiled.pattern_length))
            for channel in (Channel.A, Channel.B)
        }
        for cycle in range(compiled.pattern_length):
            for slot_id, __, entries in compiled.static_steps(cycle):
                for channel, frame in entries:
                    if frame is not None:
                        self._slot_buffers[channel][cycle][slot_id] = \
                            self._buffers[(frame.message_id, frame.chunk,
                                           channel)]

    def _build_dynamic_queues(self) -> None:
        params = self.params
        assert params is not None
        offset = 0
        if self._reserve_retx and params.g_number_of_minislots > 0:
            self._retx_slot_id = params.first_dynamic_slot_id
            offset = 1
        for message_id, packed_id in self._packing.dynamic_frame_ids().items():
            slot_id = packed_id + offset
            self._dynamic_queues[slot_id] = PriorityOutputQueue(slot_id)
            self._dynamic_slot_of[message_id] = slot_id

    # ------------------------------------------------------------------
    # SchedulerPolicy: arrivals and cycles
    # ------------------------------------------------------------------

    def route_dynamic_arrival(self, pending: PendingFrame) -> None:
        """Queue an arriving dynamic message (hook).

        Default: the spec's FTDMA discipline -- each message waits in
        the priority queue of its own frame ID, so bus access follows
        ID order (and short dynamic segments starve high IDs, the
        behaviour the paper criticizes).
        """
        slot_id = self._dynamic_slot_of.get(pending.message_id)
        if slot_id is not None:
            self._dynamic_queues[slot_id].push(pending)
            self._dynamic_backlog += 1

    def on_arrival(self, pendings: Sequence[PendingFrame]) -> None:
        arrival_buffers = self._arrival_buffers
        redundancy_for_arrival = self.redundancy_for_arrival
        dynamic = FrameKind.DYNAMIC
        for pending in pendings:
            frame = pending.frame
            if frame.kind is dynamic:
                self.route_dynamic_arrival(pending)
            else:
                for buffer in arrival_buffers.get(
                        (frame.message_id, frame.chunk), ()):
                    buffer.write(pending)
            if self.feedback:
                chunk_key = (frame.message_id, pending.instance, frame.chunk)
                if chunk_key not in self._chunk_status:
                    self._chunk_status[chunk_key] = (_PENDING,
                                                     pending.deadline_mt)
                continue
            copies = redundancy_for_arrival(pending)
            if copies:
                self._enqueue_copies(pending, copies)

    def _enqueue_copies(self, pending: PendingFrame, copies: int) -> None:
        """Admit and queue up to ``copies`` open-loop copies of ``pending``."""
        now_mt = pending.generation_time_mt
        counters = self.counters
        observed = self.obs.enabled
        # Admitted copies form a prefix (a refusal leaves the ledger as
        # it was, so every later copy is refused too): chaining from the
        # last admitted copy gives the i-th copy attempt i.
        previous = pending
        for __ in range(copies):
            admitted = self.admit_copy(pending, now_mt)
            if admitted:
                previous = previous.retry(now_mt)
                self.push_retransmission(previous)
                counters["retx_enqueued"] += 1
            else:
                counters["retx_abandoned"] += 1
            if observed:
                self.obs.emit("policy.retx_admission",
                              message_id=pending.message_id,
                              instance=pending.instance,
                              admitted=admitted, open_loop=True)

    def on_cycle_start(self, cycle: int, start_mt: int) -> None:
        self._now_mt = start_mt
        if cycle % _STATUS_PRUNE_INTERVAL == 0 and self._chunk_status:
            cutoff = start_mt - 2 * self.params.gd_cycle_mt \
                if self.params else start_mt
            self._chunk_status = {
                key: value for key, value in self._chunk_status.items()
                if value[1] >= cutoff or value[0] == _PENDING
            }

    # ------------------------------------------------------------------
    # SchedulerPolicy: static segment
    # ------------------------------------------------------------------

    def static_frame_for(self, channel: Channel, cycle: int, slot_id: int,
                         action_point_mt: int) -> Optional[PendingFrame]:
        self._now_mt = action_point_mt
        buffer = self._slot_buffers[channel][
            cycle % self._pattern_length].get(slot_id)
        if buffer is not None:
            head = buffer.peek()
            if head is not None and head.generation_time_mt <= action_point_mt:
                taken = buffer.take()
                self.counters["primary_tx"] += 1
                return taken
        stolen = self.slack_frame_for(channel, cycle, slot_id, action_point_mt)
        if stolen is not None:
            self.counters["slack_steals"] += 1
            if self.obs.enabled:
                self.obs.emit("policy.slack_steal", channel=channel.name,
                              cycle=cycle, slot_id=slot_id,
                              message_id=stolen.message_id,
                              kind=stolen.kind.name,
                              deadline_mt=stolen.deadline_mt)
        return stolen

    # ------------------------------------------------------------------
    # SchedulerPolicy: dynamic segment
    # ------------------------------------------------------------------

    def dynamic_frame_for(self, channel: Channel, slot_id: int,
                          start_mt: int,
                          minislots_remaining: int) -> Optional[PendingFrame]:
        self._now_mt = start_mt
        if not self.serves_dynamic(channel):
            return None
        if slot_id == self._retx_slot_id:
            pending = self.pop_retransmission(
                fit_bits=None, now_mt=start_mt
            )
            if pending is not None:
                self.counters["retx_tx"] += 1
            return pending
        queue = self._dynamic_queues.get(slot_id)
        if queue is None:
            return None
        while not queue.empty:
            head = queue.peek()
            assert head is not None
            if self.drop_expired_dynamic and head.deadline_mt < start_mt:
                queue.pop()
                self._dynamic_backlog -= 1
                self.counters["stale_drops"] += 1
                continue
            self.counters["dynamic_tx"] += 1
            self._dynamic_backlog -= 1
            return queue.pop()
        return None

    def on_dynamic_hold(self, pending: PendingFrame, channel: Channel) -> None:
        """Restore a popped-but-held frame to its queue (engine contract)."""
        if pending.is_retransmission and pending.kind is FrameKind.RETRANSMISSION:
            self.push_retransmission(pending)
            self.counters["retx_tx"] -= 1
            return
        slot_id = self._dynamic_slot_of.get(pending.message_id)
        if slot_id is not None:
            self._dynamic_queues[slot_id].push(pending)
            self._dynamic_backlog += 1
            self.counters["dynamic_tx"] -= 1

    # ------------------------------------------------------------------
    # SchedulerPolicy: outcomes
    # ------------------------------------------------------------------

    def on_outcome(self, segment: str, settled: Sequence[Settled]) -> None:
        self._now_mt = settled[-1][3]
        if self.feedback:
            for pending, __, outcome, end_mt in settled:
                self._now_mt = end_mt
                if outcome is _OUTCOME_DELIVERED:
                    key = (pending.message_id, pending.instance,
                           pending.frame.chunk)
                    deadline = self._chunk_status.get(
                        key, (0, pending.deadline_mt))[1]
                    self._chunk_status[key] = (_DELIVERED, deadline)
                else:
                    self.handle_failure(pending, segment, end_mt)

    # ------------------------------------------------------------------
    # Retransmission heap helpers (shared by subclasses)
    # ------------------------------------------------------------------

    def push_retransmission(self, pending: PendingFrame) -> None:
        """Enqueue a hard-aperiodic retransmission (EDF order)."""
        heapq.heappush(
            self._retx_heap,
            (pending.deadline_mt, pending.sequence, pending),
        )

    def pop_retransmission(self, fit_bits: Optional[int],
                           now_mt: int) -> Optional[PendingFrame]:
        """Pop the most urgent live retransmission that fits.

        Args:
            fit_bits: Payload capacity of the stealing slot, or ``None``
                for the dynamic segment (any FlexRay payload fits).
            now_mt: Current time; entries past deadline or already
                satisfied by a redundant copy are discarded.
        """
        skipped: List[tuple] = []
        result: Optional[PendingFrame] = None
        while self._retx_heap:
            entry = heapq.heappop(self._retx_heap)
            __, ___, pending = entry
            if self.drop_expired_dynamic and pending.deadline_mt < now_mt:
                self.counters["retx_abandoned"] += 1
                self.on_retx_discard(pending)
                continue
            if self.feedback and self.chunk_delivered(pending):
                # Only a feedback-mode sender knows the copy is moot;
                # open-loop copies are transmitted regardless (Theorem 1
                # prices every one of the k_z + 1 attempts).
                self.on_retx_discard(pending)
                continue
            if fit_bits is not None and pending.payload_bits > fit_bits:
                skipped.append(entry)
                continue
            result = pending
            break
        for entry in skipped:
            heapq.heappush(self._retx_heap, entry)
        return result

    def on_retx_discard(self, pending: PendingFrame) -> None:
        """A queued retransmission lapsed (hook for promise accounting)."""

    def chunk_delivered(self, pending: PendingFrame) -> bool:
        """Whether this chunk instance was already delivered by any copy."""
        key = (pending.message_id, pending.instance, pending.frame.chunk)
        status = self._chunk_status.get(key)
        return status is not None and status[0] == _DELIVERED

    # ------------------------------------------------------------------
    # Stepper fast-path proofs (see SchedulerPolicy for the contracts)
    # ------------------------------------------------------------------

    def note_time(self, now_mt: int) -> None:
        self._now_mt = now_mt

    def static_idle_is_noop(self) -> bool:
        """Idle static queries are no-ops unless a subclass slack-steals.

        ``static_frame_for`` on a compiled-idle slot reduces to the
        ``slack_frame_for`` hook; the base hook is a constant ``None``,
        so any subclass that keeps it inherits the fast path wholesale.
        A subclass that overrides it must supply its own proof via
        :meth:`slack_idle_is_noop`.
        """
        if type(self).slack_frame_for is QueueingPolicyBase.slack_frame_for:
            return True
        return self.slack_idle_is_noop()

    def slack_idle_is_noop(self) -> bool:
        """Proof hook for slack-stealing subclasses (default: no proof)."""
        return False

    def decisions_are_outcome_free(self) -> bool:
        """Open-loop runs decide independently of same-segment outcomes.

        With ``feedback=False`` the base ``on_outcome`` mutates exactly
        one thing: the policy clock ``_now_mt``, which every decision
        hook overwrites on entry before reading and ``on_arrival`` never
        reads.  The chunk-status map and ``handle_failure`` are written
        and reached only inside its ``if self.feedback:`` block, so
        subclasses overriding only ``handle_failure`` (the baselines)
        inherit the proof; a subclass that overrides ``on_outcome``
        itself must restate the proof or stay on the default ``False``.
        """
        if self.feedback:
            return False
        return type(self).on_outcome is QueueingPolicyBase.on_outcome

    def live_dynamic_slots(self) -> Optional[Tuple[int, ...]]:
        """Only the reserved slot is live while no dynamic message waits.

        With every dynamic queue empty (``_dynamic_backlog`` counts them
        incrementally), a query on any slot but the reserved
        retransmission slot finds nothing to pop and returns ``None``
        (CoEfficient's unified pool tests the same count first).  The
        reserved slot pops the retransmission heap, so it is live until
        the heap is empty too -- then no slot is.  Queries only drain
        the backlog and no arrival lands inside the dynamic segment, so
        the answer given at the segment start holds to its end.
        """
        if self._dynamic_backlog:
            return None
        if self._retx_heap and self._retx_slot_id is not None:
            return (self._retx_slot_id,)
        return ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def pending_work(self) -> int:
        queued = sum(len(q) for q in self._dynamic_queues.values())
        buffered = sum(1 for b in self._buffers.values() if b.occupied)
        if self.drop_expired_dynamic:
            # Only count retransmissions that are still live.
            retx = sum(
                1 for __, ___, p in self._retx_heap
                if p.deadline_mt >= self._now_mt
                and not (self.feedback and self.chunk_delivered(p))
            )
        else:
            retx = len(self._retx_heap)
        return queued + buffered + retx
