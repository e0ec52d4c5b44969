"""Reliability-aware selective slack computation (Section III-F).

Two views of the same idea, at the two levels the paper moves between:

- **Processor model** (:func:`max_level_slack`): the maximum slack
  ``S_max_{i,t}`` stealable at priority level i in ``[t, t + d_{i,t})``,
  obtained by summing the level-i idle periods of the interval -- the
  busy/idle-period scan of Section III-F, evaluated against the
  precomputed level-idle tables of a :class:`SlackStealer`.

- **FlexRay model** (:class:`SelectiveSlackPlanner`): in the table-driven
  static segment, slack is *structural idle slots*.  The planner is
  "selective" in exactly the paper's sense: it only considers slacks
  "whose timing lengths are larger than the segments to be retransmitted"
  -- i.e. slots whose capacity fits the candidate frame -- and only
  tracks slack for the messages the differentiated-retransmission plan
  actually selected, keeping the online computation O(1) per decision.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from repro.core.slack_stealing import SlackStealer
from repro.protocol.frame import PendingFrame
from repro.protocol.geometry import SegmentGeometry
from repro.obs.observability import NULL_OBS, ObsLike
from repro.timeline.compiler import CompiledRound

__all__ = ["max_level_slack", "SelectiveSlackPlanner"]

#: Distinct supply windows kept before the memo is cleared.  Periodic
#: releases need a few dozen (one per release phase and deadline); the
#: bound matters only when query times take many distinct phases
#: (feedback-mode retries, jittered sporadic releases).
_SUPPLY_MEMO_LIMIT = 4096


def max_level_slack(stealer: SlackStealer, level: int,
                    start: int, relative_deadline: int) -> int:
    """S_max_{i,t}: stealable slack at level ``level`` in [t, t+d).

    Evaluated on the aperiodic-free schedule: the total level-``level``
    idle time of the interval, which is exactly the busy/idle-period
    scan's result (idle periods are summed, busy periods contribute
    nothing).

    Args:
        stealer: Provides the precomputed level-idle tables.
        level: Priority level i.
        start: Interval start t.
        relative_deadline: Interval length d_{i,t}.
    """
    if start < 0 or relative_deadline < 0:
        raise ValueError("start and deadline must be non-negative")
    end = start + relative_deadline
    return (stealer.available_aperiodic_processing(level, end)
            - stealer.available_aperiodic_processing(level, start))


class SelectiveSlackPlanner:
    """Online selective-slack accounting for the FlexRay static segment.

    The planner answers, in O(1) amortized per query, the question the
    CoEfficient policy asks before promising a retransmission: *between
    now and this frame's deadline, are there enough structurally idle
    static slots (large enough for the frame) that are not already
    promised to earlier retransmissions?*

    Args:
        compiled: The schedule's compiled round, whose idle tables are
            the structural slack supply.
        params: Cluster parameters (slot capacity, cycle length).
        dynamic_retransmission_share: Guaranteed retransmission capacity
            in the dynamic segment, in frames per cycle (CoEfficient
            reserves the highest-priority dynamic frame ID, worth one
            frame per cycle per channel when the segment is long enough).
        obs: Observability context; acceptance-test outcomes are
            recorded as ``slack.*`` counters and ``slack.promise`` hook
            events when enabled.
    """

    def __init__(self, compiled: CompiledRound, params: SegmentGeometry,
                 dynamic_retransmission_share: float = 0.0,
                 obs: ObsLike = NULL_OBS) -> None:
        if dynamic_retransmission_share < 0:
            raise ValueError("dynamic share must be >= 0")
        self._round = compiled
        # The channel list is immutable for the round's lifetime; the
        # per-promise window scan is hot enough that re-materializing it
        # through the property on every call shows up in profiles.
        self._channels = list(compiled.channels)
        # SegmentGeometry is frozen: read the derived capacity once
        # instead of re-deriving it on every selective-filter check.
        self._slot_capacity_bits = params.static_slot_capacity_bits
        self._cycle_mt = params.gd_cycle_mt
        # The idle pattern repeats every ``pattern_length`` cycles, so
        # the supply of a window depends on its start only modulo that
        # period (see :meth:`supply_between`).
        self._pattern_mt = compiled.pattern_length * params.gd_cycle_mt
        self._supply_memo: Dict[Tuple[int, int, bool], Tuple[int, int]] = {}
        self._dynamic_share = dynamic_retransmission_share
        self._obs = obs
        # Outstanding promises as a sorted list of absolute deadlines:
        # a new candidate only competes with promises due no later than
        # itself (the retransmission queue is EDF, so later-deadline
        # promises never consume slots the candidate needs).
        self._outstanding: List[int] = []
        self._granted = 0
        self._rejected = 0

    @property
    def promised(self) -> int:
        """Retransmission slots currently promised but not yet used."""
        return len(self._outstanding)

    @property
    def stats(self) -> Dict[str, int]:
        """Grant/reject counters for experiment logs."""
        return {"granted": self._granted, "rejected": self._rejected,
                "outstanding": len(self._outstanding)}

    def fits_slot(self, pending: PendingFrame) -> bool:
        """Selective filter: does the frame fit a static slot at all?

        Slacks shorter than the segment to be retransmitted are never
        considered (the paper's selection rule); with uniform static
        slots this reduces to a capacity check.
        """
        return pending.payload_bits <= self._slot_capacity_bits

    def supply_between(self, now_mt: int, deadline_mt: int,
                       include_structural: bool = True) -> int:
        """Guaranteed slack slots in ``[now, deadline]``.

        Structural idle slots of whole cycles inside the window plus the
        reserved dynamic-segment share.  Partial leading/trailing cycles
        are excluded (conservative: a promise must never overcount).

        The answer is memoized modulo the idle pattern: with ``P`` the
        pattern length in macroticks and ``base = now - now % P``, the
        computation reads ``now`` only through the cycle index modulo
        the pattern, in-cycle offsets and the window width in cycles,
        so ``(now - base, deadline - base, include_structural)`` is an
        exact key.  Every query still counts once in ``slack.table_*``.

        Args:
            include_structural: Count static idle slots; ``False``
                restricts the supply to the dynamic share (used for
                frames too large for a static slot).
        """
        if deadline_mt <= now_mt:
            return 0
        base = now_mt - now_mt % self._pattern_mt
        key = (now_mt - base, deadline_mt - base, include_structural)
        cached = self._supply_memo.get(key)
        if cached is None:
            if len(self._supply_memo) >= _SUPPLY_MEMO_LIMIT:
                self._supply_memo.clear()
            cached = self._supply_memo[key] = self._compute_supply(
                key[0], key[1], include_structural)
        structural, total = cached
        if self._obs.enabled:
            # Table "hit": the idle-slot table found structural slack in
            # the window; a miss falls back to the dynamic share only.
            self._obs.inc("slack.table_queries")
            self._obs.inc("slack.table_hits" if structural > 0
                          else "slack.table_misses")
        return total

    def _compute_supply(self, now_mt: int, deadline_mt: int,
                        include_structural: bool) -> Tuple[int, int]:
        """Uncached ``(structural, structural + dynamic)`` supply.

        The body of :meth:`supply_between` for ``now < deadline``,
        without the memo or the observability counters.
        """
        cycle_mt = self._cycle_mt
        first_full = -(-now_mt // cycle_mt)   # ceil div
        last_full = max(first_full, deadline_mt // cycle_mt)
        structural = 0
        if include_structural:
            if last_full > first_full:
                structural = self._round.idle_slots_between(
                    first_full, last_full
                )
            # Partial leading cycle: idle slots whose whole slot window
            # still lies after `now` (slot-granular, so conservative).
            leading_cycle = now_mt // cycle_mt
            if leading_cycle < first_full:
                structural += self._idle_slots_in_window(
                    leading_cycle,
                    from_mt=now_mt,
                    to_mt=min(deadline_mt, first_full * cycle_mt),
                )
            # Partial trailing cycle: idle slots fully before `deadline`.
            trailing_cycle = deadline_mt // cycle_mt
            if trailing_cycle >= first_full and trailing_cycle >= last_full \
                    and trailing_cycle != leading_cycle:
                structural += self._idle_slots_in_window(
                    trailing_cycle,
                    from_mt=max(now_mt, trailing_cycle * cycle_mt),
                    to_mt=deadline_mt,
                )
        window_cycles = max(last_full - first_full, 0)
        dynamic = int(self._dynamic_share * window_cycles)
        return structural, structural + dynamic

    def _idle_slots_in_window(self, cycle: int, from_mt: int,
                              to_mt: int) -> int:
        """Idle slots of ``cycle`` whose slot window fits [from, to]."""
        if to_mt <= from_mt:
            return 0
        cycle_start = cycle * self._cycle_mt
        count = 0
        for channel in self._channels:
            for start, end in self._round.idle_slot_windows(channel,
                                                            cycle):
                if (cycle_start + start >= from_mt
                        and cycle_start + end <= to_mt):
                    count += 1
        return count

    def try_promise(self, pending: PendingFrame, now_mt: int) -> bool:
        """Promise a slack slot to a retransmission if supply allows.

        The selective filter in action: a frame that fits a static slot
        may draw on structural idle slots plus the dynamic share; a
        larger frame only on the dynamic share (static slacks are
        "smaller than the segment to be retransmitted"); and a promise
        is only made when the unpromised supply before the deadline
        covers it.

        Args:
            pending: The retransmission candidate.
            now_mt: Current time.

        Returns:
            Whether the copy was promised capacity.
        """
        fits_static = self.fits_slot(pending)
        if not fits_static and self._dynamic_share <= 0:
            self._rejected += 1
            self._note_outcome(pending, now_mt, granted=False,
                               fits_static=False, supply=0, competing=0)
            return False
        supply = self.supply_between(
            now_mt, pending.deadline_mt, include_structural=fits_static
        )
        competing = bisect.bisect_right(self._outstanding,
                                        pending.deadline_mt)
        if supply <= competing:
            self._rejected += 1
            self._note_outcome(pending, now_mt, granted=False,
                               fits_static=fits_static, supply=supply,
                               competing=competing)
            return False
        bisect.insort(self._outstanding, pending.deadline_mt)
        self._granted += 1
        self._note_outcome(pending, now_mt, granted=True,
                           fits_static=fits_static, supply=supply,
                           competing=competing)
        return True

    def _note_outcome(self, pending: PendingFrame, now_mt: int,
                      granted: bool, fits_static: bool, supply: int,
                      competing: int) -> None:
        """Record one acceptance-test outcome (no-op when disabled)."""
        if not self._obs.enabled:
            return
        self._obs.inc("slack.promise_granted" if granted
                      else "slack.promise_rejected")
        self._obs.emit("slack.promise", granted=granted,
                       message_id=pending.message_id,
                       instance=pending.instance, now_mt=now_mt,
                       deadline_mt=pending.deadline_mt,
                       fits_static=fits_static, supply=supply,
                       competing=competing)

    def consume(self) -> None:
        """A promised slot was used (retransmission transmitted).

        The retransmission queue is EDF-ordered, so the consumed promise
        is the earliest-deadline outstanding one.
        """
        if self._outstanding:
            self._outstanding.pop(0)
            if self._obs.enabled:
                self._obs.inc("slack.promise_consumed")

    def release(self) -> None:
        """A promise lapsed (frame expired before transmission)."""
        if self._outstanding:
            self._outstanding.pop(0)
            if self._obs.enabled:
                self._obs.inc("slack.promise_released")
