"""Hard-aperiodic acceptance test (Section III-C).

A retransmitted segment is a *hard-deadline aperiodic* task: before
promising it, the scheduler must "determine whether there exists
sufficient time available during the interval between the arrival time
and the completion deadline", while "all the guaranteed tasks, including
periodics and previously guaranteed but not yet completed aperiodics,
[still] meet their deadlines".

Two tests are provided:

- :meth:`AcceptanceTest.quick_reject` -- the paper's theta-accumulator
  style bound: the level-idle prefix tables give an *upper* bound on the
  aperiodic processing available in ``[alpha, alpha + D]``; when even the
  upper bound cannot fit the new task plus the already-promised backlog,
  the task is rejected without simulation.
- :meth:`AcceptanceTest.admit` -- the authoritative test: a trial run of
  the exact slack-stealing schedule over the interval.  The task is
  admitted iff the trial completes it by its deadline with every
  previously guaranteed aperiodic still on time (periodic deadlines hold
  by the slack stealer's construction).

The quick bound makes the common (overloaded) case cheap; the trial run
keeps admission exact, which the property tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.slack_stealing import SlackStealer
from repro.core.tasks import AperiodicTask, TaskSet

__all__ = ["AcceptanceTest", "AdmissionResult"]


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of one admission attempt."""

    admitted: bool
    reason: str
    projected_completion: Optional[int] = None


class AcceptanceTest:
    """Admission control for hard-deadline aperiodic tasks.

    Args:
        tasks: The hard periodic task set (priority order).
        horizon: Analysis horizon (defaults to the task set's).
    """

    def __init__(self, tasks: TaskSet, horizon: Optional[int] = None) -> None:
        self._stealer = SlackStealer(tasks, horizon=horizon)
        self._n = len(tasks)
        self._guaranteed: List[AperiodicTask] = []

    @property
    def guaranteed(self) -> List[AperiodicTask]:
        """Every hard aperiodic admitted so far."""
        return list(self._guaranteed)

    def quick_reject(self, task: AperiodicTask) -> bool:
        """Cheap necessary-condition check: ``True`` means *reject now*.

        Upper-bounds the aperiodic processing available in
        ``[alpha_k, alpha_k + D_k]`` by the smallest per-level idle time
        of the aperiodic-free schedule in that window (idle at every
        level is necessary for top-priority aperiodic service), then
        compares against the task's demand plus the backlog of admitted
        tasks sharing the window.
        """
        if task.deadline is None:
            return False  # soft tasks are never admission-tested
        window_start = task.arrival
        window_end = task.absolute_deadline or task.arrival
        upper = None
        for level in range(self._n):
            idle = (self._stealer.available_aperiodic_processing(level, window_end)
                    - self._stealer.available_aperiodic_processing(level, window_start))
            upper = idle if upper is None else min(upper, idle)
        if upper is None:
            return False
        backlog = sum(
            g.execution for g in self._guaranteed
            if g.arrival < window_end
            and (g.absolute_deadline or window_end) > window_start
        )
        return upper < task.execution + backlog

    def admit(self, task: AperiodicTask) -> AdmissionResult:
        """Authoritative admission test (trial schedule).

        Args:
            task: A *hard* aperiodic task (``deadline`` must be set).

        Returns:
            An :class:`AdmissionResult`; on admission the task joins the
            guaranteed set and its projected completion is reported.
        """
        if task.deadline is None:
            raise ValueError(
                f"{task.name}: soft aperiodics are served best-effort, "
                f"not admission-tested"
            )
        if self.quick_reject(task):
            return AdmissionResult(
                admitted=False,
                reason="insufficient slack upper bound in window",
            )

        trial_set = self._guaranteed + [task]
        trial_until = max(
            (t.absolute_deadline or 0) for t in trial_set
        ) + 1
        outcome = self._stealer.run(trial_set, until=trial_until)

        for guaranteed in trial_set:
            completion = outcome.aperiodic_completions.get(guaranteed.name)
            deadline = guaranteed.absolute_deadline
            if completion is None or (deadline is not None
                                      and completion > deadline):
                culprit = ("new task" if guaranteed.name == task.name
                           else f"previously guaranteed {guaranteed.name}")
                return AdmissionResult(
                    admitted=False,
                    reason=f"trial schedule misses {culprit}",
                )

        self._guaranteed.append(task)
        return AdmissionResult(
            admitted=True,
            reason="trial schedule meets all deadlines",
            projected_completion=outcome.aperiodic_completions[task.name],
        )
