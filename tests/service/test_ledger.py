"""Unit tests for the incremental slack ledger."""

from typing import Dict, List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.tasks import PeriodicTask, TaskSet
from repro.obs import Observability
from repro.service.ledger import AdmitOutcome, SlackLedger


def task_set(*specs):
    return TaskSet([
        PeriodicTask(name=name, execution=c, period=t, deadline=d)
        for name, c, t, d in specs
    ])


def light_ledger(**kwargs):
    return SlackLedger(task_set(("hi", 1, 4, 4), ("lo", 2, 10, 10)),
                       **kwargs)


class TestCapacity:
    def test_nondecreasing_inside_table(self):
        ledger = light_ledger()
        values = [ledger.capacity(t) for t in range(ledger.horizon + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_extrapolation_is_exact_per_pattern(self):
        ledger = light_ledger()
        assert ledger.extrapolates
        hyper = 20  # lcm(4, 10)
        base = ledger.capacity(ledger.horizon)
        gain = base - ledger.capacity(ledger.horizon - hyper)
        # One full pattern past the table grows by exactly the gain.
        assert ledger.capacity(ledger.horizon + hyper) == base + gain
        assert (ledger.capacity(ledger.horizon + 7 * hyper)
                == base + 7 * gain)

    def test_extrapolated_region_nondecreasing(self):
        ledger = light_ledger()
        start = ledger.horizon - 5
        values = [ledger.capacity(t) for t in range(start, start + 100)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_empty_task_set_everything_is_capacity(self):
        ledger = SlackLedger(TaskSet([]), horizon=50)
        assert ledger.capacity(10) == 10
        assert ledger.capacity(500) == 500  # extrapolates at slope 1

    def test_empty_task_set_requires_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            SlackLedger(TaskSet([]))

    def test_empty_task_set_rejects_zero_horizon(self):
        with pytest.raises(ValueError, match="positive horizon"):
            SlackLedger(TaskSet([]), horizon=0)
        assert SlackLedger(TaskSet([]), horizon=1).horizon == 1


class TestAdmission:
    def test_admits_within_slack(self):
        ledger = light_ledger()
        outcome = ledger.admit("j", arrival=0, execution=3, deadline=10)
        assert outcome.admitted
        assert outcome.deadline == 10
        assert outcome.window_slack >= 0

    def test_structural_quick_reject(self):
        ledger = light_ledger()
        outcome = ledger.admit("j", arrival=0, execution=50, deadline=60)
        assert not outcome.admitted
        assert "structural slack" in outcome.reason

    def test_committed_demand_reject(self):
        ledger = light_ledger()
        assert ledger.admit("a", arrival=0, execution=3,
                            deadline=12).admitted
        # The remaining slack in [0, 12] cannot also hold 3 more units.
        outcome = ledger.admit("b", arrival=0, execution=3, deadline=12)
        assert not outcome.admitted
        assert "committed demand" in outcome.reason

    def test_duplicate_name_rejected(self):
        ledger = light_ledger()
        ledger.admit("j", arrival=0, execution=1, deadline=10)
        assert not ledger.admit("j", arrival=2, execution=1,
                                deadline=10).admitted

    def test_past_deadline_rejected(self):
        ledger = light_ledger()
        ledger.advance(100)
        outcome = ledger.admit("j", arrival=10, execution=1, deadline=20)
        assert not outcome.admitted
        assert "already passed" in outcome.reason

    def test_invalid_parameters_rejected_not_raised(self):
        ledger = light_ledger()
        assert not ledger.admit("j", arrival=0, execution=0,
                                deadline=10).admitted
        assert not ledger.admit("j", arrival=0, execution=5,
                                deadline=3).admitted

    def test_far_future_admission_uses_extrapolation(self):
        ledger = light_ledger()
        arrival = ledger.horizon * 10
        outcome = ledger.admit("far", arrival=arrival, execution=2,
                               deadline=20)
        assert outcome.admitted

    def test_beyond_horizon_rejected_without_extrapolation(self):
        # A custom horizon shorter than offset + hyperperiod cannot
        # establish the steady-state pattern.
        ledger = SlackLedger(task_set(("hi", 1, 4, 4), ("lo", 2, 10, 10)),
                             horizon=15)
        assert not ledger.extrapolates
        outcome = ledger.admit("j", arrival=20, execution=1, deadline=10)
        assert not outcome.admitted
        assert "beyond analysis horizon" in outcome.reason


class TestReleaseAndCounters:
    def test_release_reclaims_slack(self):
        ledger = light_ledger()
        assert ledger.admit("a", arrival=0, execution=3,
                            deadline=12).admitted
        assert not ledger.admit("b", arrival=0, execution=3,
                                deadline=12).admitted
        assert ledger.release("a")
        assert ledger.admit("b", arrival=0, execution=3,
                            deadline=12).admitted

    def test_release_unknown_is_false(self):
        assert not light_ledger().release("ghost")

    def test_obs_counters(self):
        obs = Observability()
        ledger = light_ledger(obs=obs, channel="A")
        ledger.admit("a", arrival=0, execution=3, deadline=12)
        ledger.admit("b", arrival=0, execution=50, deadline=60)
        ledger.release("a")
        value = obs.registry.counter_value
        assert value("service.A.admitted") == 1
        assert value("service.A.rejected") == 1
        assert value("service.A.quick_rejects") == 1
        assert value("service.A.released") == 1

    def test_stats_track_totals(self):
        ledger = light_ledger()
        ledger.admit("a", arrival=0, execution=1, deadline=10)
        ledger.admit("b", arrival=0, execution=50, deadline=60)
        stats = ledger.stats()
        assert stats.live == 1
        assert stats.admitted_total == 1
        assert stats.rejected_total == 1
        assert stats.committed == 1
        # One 20-tick pattern of hi (1 per 4) and lo (2 per 10) leaves
        # 20 - 5 - 4 = 11 idle ticks; "a" holds one of them.
        assert ledger.extrapolates
        assert stats.capacity_remaining == 11 - 1
        # The window slides with now and is still one pattern long.
        ledger.advance(5)
        assert ledger.stats().capacity_remaining == (
            ledger.capacity(25) - ledger.capacity(5) - 1) == 10

    def test_capacity_remaining_reads_the_table_tail(self):
        """A horizon short of one pattern does not extrapolate; the
        lookahead window is what is left of the table."""
        ledger = light_ledger(horizon=15)
        assert not ledger.extrapolates
        ledger.admit("a", arrival=0, execution=1, deadline=10)
        assert ledger.capacity(15) == 7
        assert ledger.stats().capacity_remaining == 7 - 1
        ledger.advance(5)
        assert ledger.stats().capacity_remaining == (
            ledger.capacity(15) - ledger.capacity(5) - 1) == 5


class TestReconcile:
    def test_clean_after_mixed_operations(self):
        ledger = light_ledger()
        for index in range(12):
            ledger.admit(f"t{index}", arrival=index * 4, execution=1,
                         deadline=16)
        ledger.advance(10)
        ledger.release("t9")
        result = ledger.reconcile()
        assert result.clean
        assert result.committed == ledger.stats().committed

    def test_self_heals_after_injected_corruption(self):
        ledger = light_ledger()
        ledger.admit("a", arrival=0, execution=2, deadline=12)
        ledger.admit("b", arrival=1, execution=1, deadline=20)
        truth = list(ledger._order)
        # Simulate an accounting bug: one live task drops out of the
        # order every decision reads, and a phantom takes its place.
        ledger._order.pop(0)
        ledger._order.append((30, 2, "ghost", 5))
        first = ledger.reconcile()
        assert not first.clean
        assert any("1 missing, 1 phantom" in d for d in first.divergences)
        # The order rebuilt from the live set was adopted ...
        assert ledger._order == truth
        assert first.committed == 3
        # ... so the next pass is clean.
        assert ledger.reconcile().clean


class TestSoundness:
    @pytest.mark.xfail(strict=True, reason=(
        "expiry forgets the capacity an expired task used: T0 leaves "
        "the live set at 60, so [0, 100] is checked as T1 + C = 90 <= "
        "100 although T0 + T1 + C = 130 ticks must fit in it; any "
        "sound fix changes pinned serve verdicts"))
    def test_expired_demand_still_binds(self):
        ledger = SlackLedger(TaskSet([]), horizon=1000)  # F(t) = t
        assert ledger.admit("T0", arrival=0, execution=40,
                            deadline=50).admitted
        assert ledger.admit("T1", arrival=0, execution=50,
                            deadline=100).admitted
        assert ledger.advance(60) == ["T0"]
        outcome = ledger.admit("C", arrival=60, execution=40, deadline=40)
        assert not outcome.admitted


class _ReferenceTask:
    def __init__(self, name, arrival, deadline, execution):
        self.name = name
        self.arrival = arrival
        self.deadline = deadline
        self.execution = execution


class _ReferenceLedger:
    """The live-set algorithm the ledger had before it kept one EDF list.

    ``_window_demand``, ``_demand_criterion_margin`` and the expiry in
    ``advance`` are that code, less its aggregate bookkeeping; capacity
    comes from the ledger under test (F is not what is being compared).
    """

    def __init__(self, ledger: SlackLedger) -> None:
        self.capacity = ledger.capacity
        self._horizon = ledger.horizon
        self.extrapolates = ledger.extrapolates
        self._now = 0
        self._live: Dict[str, _ReferenceTask] = {}
        self._order: List[tuple] = []
        self.totals = {"admitted": 0, "rejected": 0, "released": 0,
                       "expired": 0}

    def advance(self, now: int) -> List[str]:
        if now > self._now:
            self._now = now
        expired: List[str] = []
        while self._order and self._order[0][0] <= self._now:
            deadline, arrival, name = self._order.pop(0)
            self._live.pop(name)
            expired.append(name)
        self.totals["expired"] += len(expired)
        return expired

    def admit(self, name, arrival, execution, deadline) -> AdmitOutcome:
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
            return self._reject("insufficient structural slack in window",
                                effective, absolute,
                                window - self._window_demand(
                                    effective, absolute))
        margin = self._demand_criterion_margin(effective, absolute,
                                               execution)
        if margin < 0:
            return self._reject("committed demand exceeds window slack",
                                effective, absolute, margin)
        self._live[name] = _ReferenceTask(name, effective, absolute,
                                          execution)
        self._order.append((absolute, effective, name))
        self._order.sort()
        self.totals["admitted"] += 1
        return AdmitOutcome(
            admitted=True, reason="window demand within guaranteed slack",
            arrival=effective, deadline=absolute,
            window_slack=window - self._window_demand(effective, absolute))

    def _reject(self, reason, arrival, deadline, window_slack=0):
        self.totals["rejected"] += 1
        return AdmitOutcome(admitted=False, reason=reason, arrival=arrival,
                            deadline=deadline, window_slack=window_slack)

    def release(self, name: str) -> bool:
        task = self._live.pop(name, None)
        if task is None:
            return False
        self._order.remove((task.deadline, task.arrival, name))
        self.totals["released"] += 1
        return True

    def summary(self):
        return (len(self._live),
                sum(t.execution for t in self._live.values()),
                self.totals["admitted"], self.totals["rejected"],
                self.totals["released"], self.totals["expired"], self._now)

    def _window_demand(self, start: int, end: int) -> int:
        """Committed demand of live tasks contained in ``[start, end]``."""
        return sum(t.execution for t in self._live.values()
                   if t.arrival >= start and t.deadline <= end)

    def _demand_criterion_margin(self, arrival: int, deadline: int,
                                 execution: int) -> int:
        starts = sorted({t.arrival for t in self._live.values()
                         if t.arrival <= arrival} | {arrival})
        ends = sorted({t.deadline for t in self._live.values()
                       if t.deadline >= deadline} | {deadline})
        # Tasks sorted by deadline once; each start then accumulates
        # demand in one sweep over the relevant ends.
        by_deadline = sorted(self._live.values(),
                             key=lambda t: (t.deadline, t.arrival, t.name))
        margin: Optional[int] = None
        for a in starts:
            cumulative = execution  # the candidate sits in every pair
            index = 0
            for d in ends:
                while (index < len(by_deadline)
                       and by_deadline[index].deadline <= d):
                    task = by_deadline[index]
                    if task.arrival >= a:
                        cumulative += task.execution
                    index += 1
                slack = self.capacity(d) - self.capacity(a) - cumulative
                if margin is None or slack < margin:
                    margin = slack
        return margin if margin is not None else 0


_LEDGERS = {
    "light": light_ledger,
    "empty": lambda: SlackLedger(TaskSet([]), horizon=120),
    "short": lambda: SlackLedger(task_set(("hi", 1, 4, 4),
                                          ("lo", 2, 10, 10)), horizon=60),
}

_admit_op = st.tuples(
    st.just("admit"),
    # None: a fresh name; else one of a few, so duplicates happen.
    st.one_of(st.none(), st.sampled_from([f"t{i}" for i in range(6)])),
    # Arrival relative to the clock: negative offsets are clamped.
    st.integers(-5, 12),
    st.integers(0, 15),  # 15: a far-future arrival
    st.sampled_from([2, 3, 1, 5, 8, 0]),  # execution 0 is invalid
    st.sampled_from([12, 24, 40, 60, 100, 8, 4, 0]),  # relative deadline
)
_advance_op = st.tuples(st.just("advance"), st.integers(0, 10))
# Advance exactly to the k-th live deadline (the expiry boundary).
_expire_op = st.tuples(st.just("expire"), st.integers(0, 3))
_release_op = st.tuples(st.just("release"),
                        st.sampled_from([f"t{i}" for i in range(6)]))
_op = st.one_of(*[_admit_op] * 6, _advance_op, _expire_op, _release_op)


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    # A live task with a later deadline binds the nested candidate.
    @example(kind="empty", ops=[("admit", "t0", 0, 0, 8, 12),
                                ("admit", "t1", 0, 0, 5, 8)])
    @given(kind=st.sampled_from(sorted(_LEDGERS)),
           ops=st.lists(_op, min_size=60, max_size=120))
    def test_matches_the_live_set_algorithm(self, kind, ops):
        ledger = _LEDGERS[kind]()
        reference = _ReferenceLedger(ledger)
        for step, op in enumerate(ops):
            if op[0] == "admit":
                __, name, offset, far, execution, deadline = op
                name = f"u{step}" if name is None else name
                arrival = max(0, ledger.now + offset)
                if far == 15:
                    arrival += 3 * ledger.horizon
                assert (ledger.admit(name, arrival, execution, deadline)
                        == reference.admit(name, arrival, execution,
                                           deadline))
            elif op[0] in ("advance", "expire"):
                deadlines = [task[2] for task in ledger.live_tasks()]
                if op[0] == "advance":
                    now = ledger.now + op[1]
                elif deadlines:
                    now = deadlines[min(op[1], len(deadlines) - 1)]
                else:
                    now = ledger.now
                assert ledger.advance(now) == reference.advance(now)
            else:
                assert ledger.release(op[1]) == reference.release(op[1])
            stats = ledger.stats()
            assert (stats.live, stats.committed, stats.admitted_total,
                    stats.rejected_total, stats.released_total,
                    stats.expired_total, stats.now) == reference.summary()
            assert ledger.reconcile().clean
