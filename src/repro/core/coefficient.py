"""The CoEfficient scheduler (Sections III-D/E/F assembled).

CoEfficient's four moves, each mapped to a mechanism here:

1. **Cooperative dual-channel static scheduling** -- the static schedule
   is built with :data:`ChannelStrategy.DISTRIBUTE`: every frame
   transmits once, channel A first, spill to channel B.  What the
   spec-default duplication would have burned on redundant copies
   becomes structural slack on both channels.

2. **Differentiated retransmission** -- at bind time the policy computes
   per-message failure probabilities from the BER model at each
   frame's wire length and solves Theorem 1 for the minimum
   retransmission budgets ``k_z`` meeting the reliability goal rho
   (:func:`repro.core.retransmission.derive_theorem1_plan`).
   A corrupted frame is retried only if its message was selected and its
   budget is not exhausted -- "it is unnecessary to retransmit all
   segments".

3. **Selective slack stealing** -- retransmissions are hard-deadline
   aperiodic tasks placed into *structurally idle static slots* (and a
   reserved top-priority dynamic slot), but only after the
   :class:`~repro.core.selective_slack.SelectiveSlackPlanner` confirms
   enough fitting slack exists before the frame's deadline; unpromisable
   retries are dropped instead of wasting bandwidth.  A copy is minted
   only once its promise is granted, and the promise is consumed when
   the copy is committed to the bus (handed out for a stolen static
   slot, or for the reserved dynamic slot unless the segment remainder
   holds it), never on the outcome.  ``on_outcome`` is therefore the
   base class's, whose outcome-free proof covers this policy, and the
   vectorized engine settles each segment once even when arrivals run
   promise admission mid-segment.

4. **Unified soft-aperiodic scheduling** -- dynamic messages are not
   bound to fixed FTDMA frame IDs ("schedules both static and dynamic
   segments in a unified manner"): they wait in one global pool, every
   dynamic slot of either channel serves the most urgent message that
   still fits the segment remainder, and small heads may also ride idle
   static slots.  The pool keeps one FIFO list per frame, so a query
   looks at one candidate per frame instead of walking past every
   queued instance that is too large for the slot.  This removes the
   spec's ID-order starvation of low-priority frames and is what lifts
   bandwidth
   utilization and cuts dynamic latency relative to FSPEC's strictly
   separate segments.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional

from repro.core.queueing import QueueingPolicyBase
from repro.core.retransmission import RetransmissionPlan, derive_theorem1_plan
from repro.core.selective_slack import SelectiveSlackPlanner
from repro.faults.ber import BitErrorRateModel
from repro.protocol.channel import Channel
from repro.protocol.frame import Frame, FrameKind, PendingFrame
from repro.protocol.schedule import ChannelStrategy
from repro.packing.frame_packing import PackingResult

__all__ = ["CoEfficientPolicy"]

#: Soft-pool deadline bound while nothing is queued.
_NEVER = float("inf")


class CoEfficientPolicy(QueueingPolicyBase):
    """Cooperative, reliability-goal-driven FlexRay scheduler.

    Args:
        packing: The packed workload.
        ber_model: Fault environment used for the offline Theorem-1
            planning (the planner sees channel A's BER; the injector may
            of course differ -- that mismatch is what the robustness
            tests probe).
        reliability_goal: rho in (0, 1].
        time_unit_ms: Theorem 1's time unit u.
        selective: Whether the slack planner gates retransmissions
            (disabled by the ablation benchmark: every retry is queued).
        feedback: Reactive-ARQ extension: retransmit only on observed
            corruption instead of sending the planned k_z open-loop
            copies (see :class:`QueueingPolicyBase`).
        uniform_budget: Ablation: replace the differentiated plan with
            the smallest uniform k meeting rho.
    """

    name = "CoEfficient"

    def __init__(self, packing: PackingResult, ber_model: BitErrorRateModel,
                 reliability_goal: float = 0.999999,
                 time_unit_ms: float = 1000.0,
                 selective: bool = True,
                 feedback: bool = False,
                 uniform_budget: bool = False,
                 drop_expired_dynamic: bool = True) -> None:
        super().__init__(packing, reserve_retransmission_slot=True,
                         feedback=feedback,
                         drop_expired_dynamic=drop_expired_dynamic)
        self._uniform_budget = uniform_budget
        if not 0.0 < reliability_goal <= 1.0:
            raise ValueError(
                f"reliability goal must be in (0, 1], got {reliability_goal}"
            )
        if time_unit_ms <= 0:
            raise ValueError(f"time unit must be positive, got {time_unit_ms}")
        self._ber_model = ber_model
        self._rho = reliability_goal
        self._time_unit_ms = time_unit_ms
        self._selective = selective
        self.plan: Optional[RetransmissionPlan] = None
        self._planner: Optional[SelectiveSlackPlanner] = None
        # Static slot payload capacity, read once at bind (the geometry
        # is frozen; slack stealing asks for it on every idle slot).
        self._slot_capacity_bits = 0
        # Unified soft-aperiodic pool: frame -> its queued instances as
        # (queue key, pending) in key order, frames in payload order
        # (see _pop_soft) ...
        self._soft_pool: Dict[Frame, List[tuple]] = {}
        # ... and a lower bound on every queued deadline.
        self._soft_expiry: float = _NEVER

    # ------------------------------------------------------------------
    # Offline planning
    # ------------------------------------------------------------------

    def channel_strategy(self) -> str:
        return ChannelStrategy.DISTRIBUTE

    def serves_dynamic(self, channel: Channel) -> bool:
        return True  # cooperative: both channels' dynamic segments work

    def on_bound(self) -> None:
        assert self.params is not None
        self._slot_capacity_bits = self.params.static_slot_capacity_bits
        self.plan = derive_theorem1_plan(
            self._packing, self.params, self._ber_model.ber_for("A"),
            self._rho, self._time_unit_ms,
            uniform=self._uniform_budget).plan
        compiled = self.compiled_round()
        assert compiled is not None
        dynamic_share = 0.0
        if self.retransmission_slot_id is not None:
            serving = sum(
                1 for channel in self._channels
                if self.serves_dynamic(channel)
            )
            dynamic_share = float(serving)
        self._planner = SelectiveSlackPlanner(
            compiled, self.params,
            dynamic_retransmission_share=dynamic_share,
            obs=self.obs,
        )
        if self.obs.enabled:
            self.obs.merge_counters("retransmission.plan", {
                "selected_messages": len(self.plan.selected_messages()),
                "planned_messages": len(self.plan.budgets),
                "budget_total": sum(self.plan.budgets.values()),
                "feasible": self.plan.feasible,
                "achieved_probability": self.plan.achieved_probability,
            })
            self.obs.emit("retransmission.plan", feasible=self.plan.feasible,
                          selected=len(self.plan.selected_messages()),
                          budget_total=sum(self.plan.budgets.values()))

    @property
    def slack_planner(self) -> SelectiveSlackPlanner:
        """The selective-slack planner (available after ``bind``)."""
        if self._planner is None:
            raise RuntimeError("policy not bound yet")
        return self._planner

    # ------------------------------------------------------------------
    # Differentiated retransmission
    # ------------------------------------------------------------------

    def redundancy_for_arrival(self, pending: PendingFrame) -> int:
        """Open-loop copies per instance: the planned budget k_z."""
        assert self.plan is not None
        return self.plan.budget_for(pending.message_id)

    def admit_copy(self, pending: PendingFrame, now_mt: int) -> bool:
        """Admit a planned copy only if selective slack covers it."""
        if self._selective and self._planner is not None:
            return self._planner.try_promise(pending, now_mt)
        return True

    def handle_failure(self, pending: PendingFrame, segment: str,
                       end_mt: int) -> None:
        assert self.plan is not None and self._planner is not None
        budget = self.plan.budget_for(pending.message_id)
        if pending.attempt >= budget:
            if self.obs.enabled:
                self.obs.inc("retransmission.budget_exhausted")
            return  # budget exhausted or message not selected
        if end_mt >= pending.deadline_mt:
            self.counters["retx_abandoned"] += 1
            return
        if self.chunk_delivered(pending):
            return
        retry = pending.retry(end_mt)
        if self._selective:
            if not self._planner.try_promise(retry, end_mt):
                self.counters["retx_abandoned"] += 1
                if self.obs.enabled:
                    self.obs.emit("policy.retx_admission",
                                  message_id=pending.message_id,
                                  instance=pending.instance,
                                  admitted=False, open_loop=False)
                return
        self.push_retransmission(retry)
        self.counters["retx_enqueued"] += 1
        if self.obs.enabled:
            self.obs.emit("policy.retx_admission",
                          message_id=pending.message_id,
                          instance=pending.instance,
                          admitted=True, open_loop=False)

    def on_retx_discard(self, pending: PendingFrame) -> None:
        if self._selective and self._planner is not None:
            self._planner.release()

    def _consume_promise(self) -> None:
        """A retransmission was committed to the bus: it uses its slot.

        Consuming at hand-out keeps the promise ledger off the outcome
        path, so the base class's outcome-free proof covers this policy.
        The interpreter reports an outcome right after its hand-out,
        with no arrival in between, so no ``try_promise`` can tell the
        two points apart.
        """
        if self._selective and self._planner is not None:
            self._planner.consume()

    # ------------------------------------------------------------------
    # Unified soft-aperiodic pool (dynamic messages)
    # ------------------------------------------------------------------

    def route_dynamic_arrival(self, pending: PendingFrame) -> None:
        """Dynamic messages join the unified pool, behind their frame."""
        self._soft_queue(pending.frame).append((pending.queue_key(), pending))
        self._soft_expiry = min(self._soft_expiry, pending.deadline_mt)
        self._dynamic_backlog += 1

    def _soft_queue(self, frame: Frame) -> List[tuple]:
        """The pool's list for ``frame``, created on its first instance."""
        queue = self._soft_pool.get(frame)
        if queue is None:
            queue = self._soft_pool[frame] = []
            self._soft_pool = dict(sorted(
                self._soft_pool.items(),
                key=lambda item: item[0].payload_bits))
        return queue

    def _pop_soft(self, max_payload_bits: Optional[int],
                  now_mt: int) -> Optional[PendingFrame]:
        """Most urgent live soft message with payload <= the bound.

        A frame's instances share its priority and payload and arrive in
        generation order with one relative deadline, so each frame's
        list is in queue-key order, its expired entries form a prefix,
        and its first live entry is its only candidate (every later one
        sorts after it and is generated no earlier).  The result is the
        least-key candidate that is generated and whose frame fits the
        bound.  With ``drop_expired_dynamic`` set, the expired entries
        that sort before the result -- all of them when there is none --
        are dropped, the ones a key-ordered walk of the whole pool would
        meet on its way.  Until ``now_mt`` passes the pool's deadline
        bound nothing has expired, and the walk stops at the first frame
        over the payload bound.
        """
        expiring = self.drop_expired_dynamic and now_mt > self._soft_expiry
        best: Optional[List[tuple]] = None
        best_key: Optional[tuple] = None
        expired: List[tuple] = []  # (queue, expired prefix length)
        for frame, queue in self._soft_pool.items():
            oversized = (max_payload_bits is not None
                         and frame.payload_bits > max_payload_bits)
            if oversized and not expiring:
                break
            if not queue:
                continue
            head = 0
            if expiring:
                size = len(queue)
                while head < size and queue[head][1].deadline_mt < now_mt:
                    head += 1
                if head:
                    expired.append((queue, head))
                    if head == size:
                        continue
            if oversized:
                continue
            key, pending = queue[head]
            if pending.generation_time_mt <= now_mt and (
                    best_key is None or key < best_key):
                best = queue
                best_key = key
        if expiring:
            dropped = 0
            for queue, count in expired:
                if best_key is not None:
                    # (best_key,) sorts after every entry with a smaller key.
                    count = bisect_left(queue, (best_key,), 0, count)
                del queue[:count]
                dropped += count
            self._dynamic_backlog -= dropped
            self.counters["stale_drops"] += dropped
            self._soft_expiry = min(
                (queue[0][1].deadline_mt
                 for queue in self._soft_pool.values() if queue),
                default=_NEVER)
        if best is None:
            return None
        self._dynamic_backlog -= 1
        return best.pop(0)[1]

    def _push_soft(self, pending: PendingFrame) -> None:
        insort(self._soft_queue(pending.frame),
               (pending.queue_key(), pending))
        self._soft_expiry = min(self._soft_expiry, pending.deadline_mt)
        self._dynamic_backlog += 1

    def dynamic_frame_for(self, channel: Channel, slot_id: int,
                          start_mt: int,
                          minislots_remaining: int) -> Optional[PendingFrame]:
        assert self.params is not None
        self._now_mt = start_mt
        # Retransmissions keep absolute priority in the reserved slot.
        if slot_id == self.retransmission_slot_id:
            retry = self.pop_retransmission(fit_bits=None, now_mt=start_mt)
            if retry is not None:
                self.counters["retx_tx"] += 1
                # The engine's hold test: a held retry goes back to the
                # heap (on_dynamic_hold) with its promise untouched.
                if (self.params.minislots_for_bits(retry.payload_bits)
                        <= minislots_remaining):
                    self._consume_promise()
                return retry
        # Every other dynamic slot serves the unified pool with the most
        # urgent message that still fits the segment remainder.
        if self._dynamic_backlog == 0:
            return None
        capacity_bits = self._payload_fitting_minislots(minislots_remaining)
        if capacity_bits <= 0:
            return None
        pending = self._pop_soft(capacity_bits, start_mt)
        if pending is not None:
            self.counters["dynamic_tx"] += 1
        return pending

    def _payload_fitting_minislots(self, minislots: int) -> int:
        """Largest payload whose dynamic transmission fits ``minislots``."""
        assert self.params is not None
        params = self.params
        usable_mt = ((minislots - params.gd_dynamic_slot_idle_phase_minislots)
                     * params.gd_minislot_mt
                     - params.gd_minislot_action_point_offset_mt)
        if usable_mt <= 0:
            return 0
        bits = int(usable_mt * params.bits_per_macrotick) \
            - params.frame_overhead_bits
        return max(0, bits)

    def on_dynamic_hold(self, pending: PendingFrame, channel: Channel) -> None:
        if pending.kind is FrameKind.RETRANSMISSION:
            self.push_retransmission(pending)
            self.counters["retx_tx"] -= 1
        else:
            self._push_soft(pending)
            self.counters["dynamic_tx"] -= 1

    def pending_work(self) -> int:
        return super().pending_work() + sum(
            map(len, self._soft_pool.values()))

    # ------------------------------------------------------------------
    # Slack stealing in idle static slots
    # ------------------------------------------------------------------

    def slack_idle_is_noop(self) -> bool:
        """Idle static queries are no-ops when nothing can be stolen.

        ``slack_frame_for`` below has exactly two sources: the
        retransmission heap (empty => the pop is a side-effect-free
        ``None``) and the soft pool (``_dynamic_backlog`` counts it
        incrementally).  With both dry the query provably answers
        ``None`` without mutating state, so the stepper may skip it.
        """
        return not self._retx_heap and self._dynamic_backlog == 0

    def slack_frame_for(self, channel: Channel, cycle: int, slot_id: int,
                        action_point_mt: int) -> Optional[PendingFrame]:
        capacity = self._slot_capacity_bits

        # Hard aperiodics (retransmissions) first.  A stolen static
        # slot always carries what it is handed (the pop fits its
        # capacity), so the promise is consumed here.
        retry = self.pop_retransmission(fit_bits=capacity,
                                        now_mt=action_point_mt)
        if retry is not None:
            self._consume_promise()
            return retry

        # Then soft aperiodics (dynamic messages).
        if self._dynamic_backlog == 0:
            return None
        return self._pop_soft(capacity, action_point_mt)
