"""Incremental slack accounting for online admission control.

The offline :class:`~repro.core.acceptance.AcceptanceTest` answers one
admission question with a trial run of the exact slack-stealing
schedule -- O(horizon) per request.  A service answering thousands of
requests needs the paper's "fast and accurate slack computation"
instead: precompute the guaranteed aperiodic capacity once, then keep
the committed demand *incrementally* as requests are admitted, released
and expired.

The capacity function comes straight from the slack stealer's
aperiodic-free tables:

    F(t) = min_i A_i(t)

the processing guaranteed to be available for top-priority aperiodic
service in ``[0, t]`` no matter how the periodic jobs interleave (idle
at every level is necessary for top-priority aperiodic service).  F is
nondecreasing, so an admitted set served earliest-deadline-first over
this capacity is feasible **iff** the processor-demand criterion holds
on the variable-capacity resource:

    for every arrival a and deadline d with a < d:
        demand(a, d) <= F(d) - F(a)

where ``demand(a, d)`` sums the execution of admitted tasks whose
window ``[arrival, absolute deadline]`` is contained in ``[a, d]``.
Admitting a candidate only creates pairs that *contain* the candidate's
window, so the incremental check is restricted to arrivals <= the
candidate's arrival and deadlines >= the candidate's deadline -- the
state invariant ("the live set satisfies the criterion") carries the
rest.

The ledger's one structure is the live set as a list in EDF order,
which admission, window slack, expiry and stats all read;
:meth:`reconcile` rebuilds it from the by-name map and compares
(self-healing plus counting any divergence, which tests and the
service's periodic reconciliation pass require to be zero).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.slack_stealing import CapacityProfile, SlackStealer
from repro.core.tasks import TaskSet
from repro.obs.observability import NULL_OBS, ObsLike

__all__ = ["AdmitOutcome", "LedgerStats", "ReconcileResult", "SlackLedger"]


@dataclass(frozen=True)
class AdmitOutcome:
    """Result of one ledger admission attempt."""

    admitted: bool
    reason: str
    #: Effective (clamped-to-now) arrival the test used.
    arrival: int
    #: Absolute deadline the test used.
    deadline: int
    #: F(deadline) - F(arrival) - demand in the window after the
    #: decision: the guaranteed slack still unclaimed in the window.
    window_slack: int


@dataclass(frozen=True)
class LedgerStats:
    """Point-in-time summary of one channel's ledger."""

    live: int
    committed: int
    admitted_total: int
    rejected_total: int
    released_total: int
    expired_total: int
    now: int
    horizon: int
    capacity_total: int
    capacity_remaining: int


@dataclass(frozen=True)
class ReconcileResult:
    """Outcome of one full-recompute reconciliation pass."""

    divergences: Tuple[str, ...]
    committed: int

    @property
    def clean(self) -> bool:
        """Whether incremental and recomputed state agreed exactly."""
        return not self.divergences


#: ``(absolute deadline, arrival, name, execution)``; names are unique
#: among live tasks, so tuple order is EDF ``(deadline, arrival, name)``.
_Live = Tuple[int, int, str, int]


class SlackLedger:
    """Per-channel incremental slack accountant.

    Args:
        tasks: The channel's hard periodic task set (priority order).
            May be empty, in which case every tick is capacity and
            ``horizon`` is required.
        horizon: Analysis horizon in ticks; defaults to the task set's.
        obs: Observability context for admission counters.
        channel: Label used in counters (``service.<channel>...``).
    """

    def __init__(self, tasks: TaskSet, horizon: Optional[int] = None,
                 obs: ObsLike = NULL_OBS, channel: str = "A") -> None:
        self._obs = obs
        self._channel = channel
        if len(tasks) == 0:
            if horizon is None or horizon <= 0:
                raise ValueError(
                    "an empty task set needs an explicit positive horizon")
            # No periodics: every tick everywhere is capacity.
            self._profile = CapacityProfile.unconstrained(horizon)
        else:
            # The stealer compiles F once; the ledger only reads the
            # profile (the default horizon max_offset + 2H always
            # contains one steady-state pattern, so the profile
            # extrapolates; a custom horizon that does not saturates
            # and far-future admissions are rejected).
            self._profile = SlackStealer(
                tasks, horizon=horizon).capacity_profile()
        self._horizon = self._profile.horizon
        self._now = 0
        self._live: Dict[str, _Live] = {}
        # The same tuples, sorted: the order capacity is consumed in.
        self._order: List[_Live] = []
        self._admitted_total = 0
        self._rejected_total = 0
        self._released_total = 0
        self._expired_total = 0

    # -- properties ----------------------------------------------------

    @property
    def horizon(self) -> int:
        """Last tick the capacity table covers."""
        return self._horizon

    @property
    def now(self) -> int:
        """Current logical time (ticks)."""
        return self._now

    def live_tasks(self) -> List[Tuple[str, int, int, int]]:
        """Live tasks as ``(name, arrival, absolute_deadline, execution)``.

        Sorted by (deadline, arrival, name): the order the capacity is
        consumed under EDF service.
        """
        return [(name, arrival, deadline, execution)
                for deadline, arrival, name, execution in self._order]

    @property
    def extrapolates(self) -> bool:
        """Whether capacity extends past the table (steady-state slope)."""
        return self._profile.extrapolates

    def capacity(self, t: int) -> int:
        """F(t): guaranteed aperiodic capacity in ``[0, t]``.

        Inside the analysis horizon this is the precomputed table; past
        it, the steady-state pattern repeats every hyperperiod, so the
        table's last full pattern is tiled with its per-pattern gain
        (exact for the cyclic aperiodic-free schedule).
        """
        return self._profile.capacity(t)

    # -- clock ---------------------------------------------------------

    def advance(self, now: int) -> List[str]:
        """Advance the logical clock (monotone) and expire the past.

        A task whose absolute deadline is ``<= now`` leaves the live
        set.  This is not sound:
        the capacity it used is forgotten, but a live task that arrived
        before its deadline is still checked against windows from its
        own arrival, which it shared -- so the ledger can over-admit
        (``tests/service/test_ledger.py::TestSoundness``).

        Returns:
            Names of expired tasks (deadline order).
        """
        if now > self._now:
            self._now = now
        # (now + 1,) sorts before every tuple whose deadline is now + 1.
        cut = bisect.bisect_left(self._order, (self._now + 1,))
        expired = [name for __, __, name, __ in self._order[:cut]]
        if expired:
            del self._order[:cut]
            for name in expired:
                del self._live[name]
            self._expired_total += len(expired)
            if self._obs.enabled:
                self._obs.inc(f"service.{self._channel}.expired",
                              len(expired))
        return expired

    # -- admission -----------------------------------------------------

    def admit(self, name: str, arrival: int, execution: int,
              deadline: int) -> AdmitOutcome:
        """Admission-test one hard aperiodic request.

        Args:
            name: Unique name among live tasks.
            arrival: Requested arrival tick (clamped up to ``now``).
            execution: Processing demand in ticks (>= 1).
            deadline: *Relative* hard deadline in ticks.

        Returns:
            An :class:`AdmitOutcome`; on admission the task joins the
            live set.
        """
        if execution < 1:
            return self._reject("execution must be >= 1", 0, 0)
        if deadline < execution:
            return self._reject("deadline below execution", 0, 0)
        effective = max(arrival, self._now)
        absolute = arrival + deadline
        if absolute <= effective:
            return self._reject("deadline already passed", effective,
                                absolute)
        if name in self._live:
            return self._reject(f"name {name!r} already guaranteed",
                                effective, absolute)
        if absolute > self._horizon and not self.extrapolates:
            return self._reject("deadline beyond analysis horizon",
                                effective, absolute)

        window = self.capacity(absolute) - self.capacity(effective)
        if window < execution:
            # The paper's quick-reject: even an empty system lacks the
            # structural slack.
            if self._obs.enabled:
                self._obs.inc(f"service.{self._channel}.quick_rejects")
            return self._reject("insufficient structural slack in window",
                                effective, absolute,
                                window - self._window_demand(
                                    effective, absolute))

        margin = self._demand_criterion_margin(effective, absolute,
                                               execution)
        if margin < 0:
            return self._reject("committed demand exceeds window slack",
                                effective, absolute, margin)

        task = (absolute, effective, name, execution)
        self._live[name] = task
        bisect.insort(self._order, task)
        self._admitted_total += 1
        if self._obs.enabled:
            self._obs.inc(f"service.{self._channel}.admitted")
        return AdmitOutcome(
            admitted=True, reason="window demand within guaranteed slack",
            arrival=effective, deadline=absolute,
            window_slack=window - self._window_demand(effective, absolute))

    def _reject(self, reason: str, arrival: int, deadline: int,
                window_slack: int = 0) -> AdmitOutcome:
        self._rejected_total += 1
        if self._obs.enabled:
            self._obs.inc(f"service.{self._channel}.rejected")
        return AdmitOutcome(admitted=False, reason=reason, arrival=arrival,
                            deadline=deadline, window_slack=window_slack)

    def _window_demand(self, start: int, end: int) -> int:
        """Committed demand of live tasks contained in ``[start, end]``."""
        return sum(execution for deadline, arrival, __, execution
                   in self._order if arrival >= start and deadline <= end)

    def _demand_criterion_margin(self, arrival: int, deadline: int,
                                 execution: int) -> int:
        """Min slack margin over every pair the candidate participates in.

        Only pairs ``(a, d)`` with ``a <= arrival`` and ``d >= deadline``
        gain the candidate's demand; all other pairs held before and are
        untouched.  Returns ``min (F(d) - F(a) - demand'(a, d))`` over
        those pairs, where ``demand'`` includes the candidate -- the
        admission is safe iff the margin is >= 0.
        """
        order = self._order
        starts = sorted({task[1] for task in order
                         if task[1] <= arrival} | {arrival})
        ends = sorted({task[0] for task in order
                       if task[0] >= deadline} | {deadline})
        live = len(order)
        margin: Optional[int] = None
        for a in starts:
            cumulative = execution  # the candidate sits in every pair
            index = 0
            for d in ends:
                while index < live and order[index][0] <= d:
                    task = order[index]
                    if task[1] >= a:  # arrival
                        cumulative += task[3]  # execution
                    index += 1
                slack = self.capacity(d) - self.capacity(a) - cumulative
                if margin is None or slack < margin:
                    margin = slack
        return margin if margin is not None else 0

    # -- releases ------------------------------------------------------

    def release(self, name: str) -> bool:
        """Reclaim a live task's demand (e.g. it completed early).

        Returns:
            ``True`` if the task was live and is now released.
        """
        task = self._live.pop(name, None)
        if task is None:
            return False
        self._order.remove(task)
        self._released_total += 1
        if self._obs.enabled:
            self._obs.inc(f"service.{self._channel}.released")
        return True

    # -- reconciliation ------------------------------------------------

    def reconcile(self) -> ReconcileResult:
        """Rebuild the EDF order from the live set and assert agreement.

        Sorts the by-name live map afresh, compares it with the
        incrementally maintained order every decision reads, and -- if
        they differ -- adopts the rebuilt order (self-heal) so one bug
        cannot silently poison every later admission.
        """
        order = sorted(self._live.values())
        divergences: List[str] = []
        if order != self._order:
            rebuilt, kept = set(order), set(self._order)
            divergences.append(f"deadline order: {len(rebuilt - kept)} "
                               f"missing, {len(kept - rebuilt)} phantom")
            self._order = order
        return ReconcileResult(divergences=tuple(divergences),
                               committed=sum(task[3] for task in order))

    # -- stats ---------------------------------------------------------

    def stats(self) -> LedgerStats:
        """Current counters and capacity position.

        ``capacity_remaining`` is the guaranteed capacity of the next
        lookahead window (one steady-state pattern, or the table tail
        when not extrapolating) minus the committed demand -- the slack
        still on offer right now.
        """
        if self.extrapolates:
            window = self._profile.pattern_length
        else:
            window = self._horizon - min(self._now, self._horizon)
        upcoming = (self.capacity(self._now + window)
                    - self.capacity(self._now))
        committed = sum(task[3] for task in self._order)
        return LedgerStats(
            live=len(self._live),
            committed=committed,
            admitted_total=self._admitted_total,
            rejected_total=self._rejected_total,
            released_total=self._released_total,
            expired_total=self._expired_total,
            now=self._now,
            horizon=self._horizon,
            capacity_total=self.capacity(self._horizon),
            capacity_remaining=upcoming - committed,
        )
