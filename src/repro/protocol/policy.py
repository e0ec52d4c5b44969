"""Scheduler policy interface.

The cluster mechanics (slot timing, minislot counting, fault injection,
trace recording) are policy-free; everything the paper compares --
CoEfficient versus the standard FSPEC behaviour -- is expressed as a
:class:`SchedulerPolicy`.  The engines ask the policy exactly three
questions:

1. At each static slot's action point: *which pending frame (if any)
   transmits on this channel, in this cycle, in this slot?*
2. At each dynamic slot: *which pending frame (if any) is at the head of
   this frame ID's queue on this channel?*
3. Once a segment's attempts are settled: *here are the outcomes* (so
   the policy can plan retransmissions).

Host arrivals reach the policy through ``on_arrival``, interleaved with
the queries at the action points where the hosts release them.

The two feedback hooks are batch calls, one per delivery pass and one
per settled segment: ``on_arrival`` receives every chunk instance the
hosts released since the previous pass, and ``on_outcome`` every
attempt of a segment the vectorized engine settled at once.  The
interpreter reports each attempt right after it, as a batch of one, so
there is one hook contract for every engine.

This narrow interface is what lets CoEfficient steal static slack: the
engine does not care whether the frame it is handed was the slot's
schedule-table owner or a slack-stolen retransmission -- the policy is
accountable for hard-deadline safety, and the analysis modules give it
the tools to be.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.protocol.channel import Channel
from repro.protocol.frame import PendingFrame
from repro.obs.observability import NULL_OBS, ObsLike
from repro.sim.trace import TransmissionOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocol.cluster import Cluster
    from repro.timeline.compiler import CompiledRound

__all__ = ["Settled", "SchedulerPolicy"]

#: One settled transmission attempt as :meth:`SchedulerPolicy.on_outcome`
#: receives it: ``(pending, channel, outcome, end_mt)``.
Settled = Tuple[PendingFrame, Channel, TransmissionOutcome, int]


class SchedulerPolicy(abc.ABC):
    """Strategy object deciding what transmits when.

    Lifecycle: ``bind`` once (offline planning: schedule tables,
    retransmission budgets), then per cycle ``on_cycle_start`` followed by
    the engines' per-slot queries, with ``on_arrival`` interleaved as the
    hosts produce messages and ``on_outcome`` after the attempts.
    """

    #: Human-readable policy name used in experiment tables.
    name: str = "abstract"

    #: Observability context; the shared no-op by default.  Hot-path
    #: instrumentation in policies must guard on ``self.obs.enabled``.
    obs = NULL_OBS

    def attach_observability(self, obs: "ObsLike") -> None:
        """Attach an observability context (before ``bind``).

        Attaching is observation-only by contract: counters, hook events
        and timings are recorded, but scheduling decisions are
        unchanged -- the determinism tests compare instrumented and
        bare runs event-for-event.
        """
        self.obs = obs

    @abc.abstractmethod
    def bind(self, cluster: "Cluster") -> None:
        """Offline planning against a concrete cluster.

        Called exactly once before the first cycle.  Implementations
        build schedule tables, compute retransmission budgets, and size
        their queues here.  They copy what they need from ``cluster``
        and keep no reference to it: the cluster owns the policy, and a
        back-reference would make every run a cycle that only the cycle
        collector can free.
        """

    @abc.abstractmethod
    def on_arrival(self, pendings: Sequence[PendingFrame]) -> None:
        """Hosts produced message instances (one call per delivery pass).

        ``pendings`` holds the chunk instances of every release due by
        the pass's time, in release order (time, then message ID, then
        chunk), and is never empty.  They all land at one point between
        two queries, so the policy handles them as it would one at a
        time, in order.
        """

    @abc.abstractmethod
    def on_cycle_start(self, cycle: int, start_mt: int) -> None:
        """A communication cycle begins."""

    @abc.abstractmethod
    def static_frame_for(self, channel: Channel, cycle: int, slot_id: int,
                         action_point_mt: int) -> Optional[PendingFrame]:
        """The frame to transmit in a static slot, or ``None`` (idle).

        The returned frame's wire duration must fit the static slot; the
        engine enforces this and treats an oversized frame as a policy
        bug (raises), not as a protocol drop.
        """

    @abc.abstractmethod
    def dynamic_frame_for(self, channel: Channel, slot_id: int,
                          start_mt: int,
                          minislots_remaining: int) -> Optional[PendingFrame]:
        """The frame at the head of ``slot_id``'s dynamic queue, or ``None``.

        The engine has already verified the pLatestTx gate *for starting*;
        the policy should return a frame only if it wants this slot ID to
        transmit now.  Returning a frame that needs more minislots than
        ``minislots_remaining`` is allowed -- the engine will hold it
        (FlexRay keeps the message for the next cycle) and charge one
        idle minislot.

        Contract: this method must *peek*, not pop.  The frame leaves its
        queue only in ``on_outcome`` (the engine transmitted it) --
        ``on_dynamic_hold`` means it stayed queued.
        """

    def on_dynamic_hold(self, pending: PendingFrame, channel: Channel) -> None:
        """The offered dynamic frame did not fit this cycle's remainder.

        FlexRay holds the message for the next communication cycle.  The
        default does nothing because ``dynamic_frame_for`` peeks -- the
        frame is still at the head of its queue.
        """

    @abc.abstractmethod
    def on_outcome(self, segment: str, settled: Sequence[Settled]) -> None:
        """Feedback on settled attempts (the sender monitors the bus).

        ``settled`` holds ``(pending, channel, outcome, end_mt)`` for
        each attempt of one ``segment`` (``"static"`` or ``"dynamic"``)
        in interpreter order, and is never empty.  The interpreter
        passes each attempt alone, right after it; the vectorized engine
        passes a whole segment at its end, which only a policy whose
        decisions are outcome-free (:meth:`decisions_are_outcome_free`)
        ever sees.
        """

    def compiled_round(self) -> Optional["CompiledRound"]:
        """The policy's compiled communication round, if it has one.

        The cluster's :class:`~repro.timeline.stepper.TimelineStepper`
        fast path is only engaged when this returns a round; the default
        (``None``) keeps custom policies on the event interpreter.
        Must only be called after ``bind``.
        """
        return None

    def static_idle_is_noop(self) -> bool:
        """Whether an idle-slot ``static_frame_for`` is provably a no-op.

        ``True`` promises that, in the policy's *current* state, querying
        any static (channel, slot) pair the compiled round marks idle
        would return ``None`` without side effects -- the licence the
        stepper needs to skip the query.  The promise is checkpointed:
        the stepper re-asks after every arrival delivery and every
        transmission outcome, so the answer may freely flip to ``False``
        the moment retransmission or slack-stealing work appears.

        The default (``False``) is always safe: it pins the policy to
        the exact event interpreter.
        """
        return False

    def live_dynamic_slots(self) -> Optional[Tuple[int, ...]]:
        """The dynamic slots whose query can matter this segment.

        Returns the ascending slot IDs whose ``dynamic_frame_for`` query
        may answer a frame or mutate policy state during the upcoming
        dynamic segment; every other slot's query is promised to return
        ``None`` with no side effect beyond the policy clock (which
        ``note_time`` replays).  Asked once, after the segment-start
        arrival delivery -- no arrival lands inside a dynamic segment --
        and binding for the whole segment on every channel: it must name
        every slot that any query of the segment could make live.

        FTDMA's minislot counting makes the proof pay: a slot whose
        query answers ``None`` collapses to exactly one minislot, so the
        engine advances over every unnamed slot arithmetically --
        keeping the pLatestTx gate and the final clock stamp -- and
        queries only the named ones.  An empty tuple means the whole
        segment is idle.

        The default (``None``) names no proof: every slot is live and
        the engine runs the full arbitration loop.
        """
        return None

    def decisions_are_outcome_free(self) -> bool:
        """Whether transmission decisions ignore same-segment outcomes.

        ``True`` promises that, in the policy's current configuration,
        no ``static_frame_for`` / ``dynamic_frame_for`` /
        ``on_dynamic_hold`` decision and no ``on_arrival`` admission
        made inside one segment reads any state that ``on_outcome``
        mutates -- so the vectorized engine may ask every question of a
        segment first, delivering mid-segment arrivals at their
        interpreter action points (phase A), and feed all outcomes back
        once at the end of the segment (phase B) without changing a
        single answer.  This is a *configuration-level* promise, not a
        per-cycle one: it must hold for the whole run (open-loop
        policies qualify; feedback ARQ does not, because a corrupted
        frame re-enters the queues mid-segment).

        The default (``False``) is always safe: it keeps the policy on
        the stepper/interpreter paths, where outcomes are applied
        between queries exactly as the oracle does.
        """
        return False

    def note_time(self, now_mt: int) -> None:
        """Clock sync from the compiled-timeline fast path.

        The interpreter advances policy-visible time as a side effect of
        its per-slot queries.  When the stepper proves a run of queries
        skippable, it still reports the time the *last skipped query*
        would have carried, so time-dependent accounting (e.g. the
        retransmission-liveness filter in ``pending_work``) cannot
        observe the difference between modes.  Default: no-op.
        """

    def pending_work(self) -> int:
        """Frames still queued or awaiting retransmission.

        ``run_until_complete`` uses this to distinguish "everything that
        can be delivered has been" from "the policy still has work".  The
        default (0) is safe for stateless policies.
        """
        return 0

    def on_horizon_end(self, now_mt: int) -> None:
        """Called once when the simulation horizon is reached.

        Default: nothing.  Policies may flush statistics here.
        """
