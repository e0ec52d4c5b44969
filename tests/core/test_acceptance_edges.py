"""Edge-case coverage for the hard-aperiodic acceptance test.

Complements ``test_acceptance.py`` with the boundary semantics the
admission service depends on: the ledger's exact-deadline expiry,
zero-slack channels, and admit/expire interleavings -- including a
property test that the service ledger's incremental slack accounting
always agrees with a full recompute.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acceptance import AcceptanceTest
from repro.core.tasks import AperiodicTask, PeriodicTask, TaskSet
from repro.service.ledger import SlackLedger


def task_set(*specs):
    return TaskSet([
        PeriodicTask(name=name, execution=c, period=t, deadline=d)
        for name, c, t, d in specs
    ])


def light_set():
    return task_set(("hi", 1, 4, 4), ("lo", 2, 10, 10))


# ----------------------------------------------------------------------
# ledger expiry at exact-deadline boundaries
# ----------------------------------------------------------------------

class TestExpireBoundary:
    def test_ledger_advance_matches_expire_boundary(self):
        # The ledger's expiry boundary: deadline == now expires,
        # deadline == now + 1 survives.
        ledger = SlackLedger(light_set())
        assert ledger.admit("j", arrival=0, execution=2,
                            deadline=10).admitted
        assert ledger.advance(9) == []
        assert ledger.advance(10) == ["j"]


# ----------------------------------------------------------------------
# quick_reject() on zero-slack channels
# ----------------------------------------------------------------------

class TestZeroSlackChannel:
    """A channel saturated by periodics guarantees no aperiodic time."""

    def saturated(self):
        # C == T == D: the single task occupies every tick, leaving
        # zero level-idle time anywhere in the schedule.
        return task_set(("full", 4, 4, 4))

    def test_quick_reject_fires_immediately(self):
        test = AcceptanceTest(self.saturated())
        task = AperiodicTask(name="j", arrival=0, execution=1, deadline=100)
        assert test.quick_reject(task)

    def test_admit_rejects_without_trial_admission(self):
        test = AcceptanceTest(self.saturated())
        result = test.admit(
            AperiodicTask(name="j", arrival=3, execution=1, deadline=50))
        assert not result.admitted
        assert test.guaranteed == []

    def test_soft_task_still_not_quick_rejected(self):
        test = AcceptanceTest(self.saturated())
        assert not test.quick_reject(
            AperiodicTask(name="soft", arrival=0, execution=5))

    def test_ledger_counts_quick_reject(self):
        ledger = SlackLedger(self.saturated())
        outcome = ledger.admit("j", arrival=0, execution=1, deadline=50)
        assert not outcome.admitted
        assert "structural slack" in outcome.reason


# ----------------------------------------------------------------------
# admit/expire interleavings
# ----------------------------------------------------------------------

class TestInterleavings:
    def test_name_reusable_after_expiry_in_ledger(self):
        ledger = SlackLedger(light_set())
        assert ledger.admit("j", arrival=0, execution=1,
                            deadline=10).admitted
        assert not ledger.admit("j", arrival=0, execution=1,
                                deadline=10).admitted  # duplicate name
        ledger.advance(10)
        assert ledger.admit("j", arrival=10, execution=1,
                            deadline=10).admitted

    def test_interleaved_stats_consistent(self):
        ledger = SlackLedger(light_set())
        ledger.admit("a", arrival=0, execution=1, deadline=10)
        ledger.admit("b", arrival=2, execution=1, deadline=12)
        ledger.advance(10)   # expires a (deadline 10) only
        ledger.release("b")
        stats = ledger.stats()
        assert stats.live == 0
        assert stats.committed == 0
        assert stats.expired_total == 1
        assert stats.released_total == 1
        assert ledger.reconcile().clean


# ----------------------------------------------------------------------
# Property: incremental slack accounting == full recompute
# ----------------------------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(["admit", "advance", "release"]),
        st.integers(min_value=0, max_value=6),    # arrival / time delta
        st.integers(min_value=1, max_value=4),    # execution
        st.integers(min_value=4, max_value=30),   # relative deadline
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_incremental_slack_matches_recomputed(ops):
    """After any admit/advance/release interleaving the incrementally
    maintained aggregates equal a from-scratch recompute."""
    ledger = SlackLedger(light_set())
    acceptance = AcceptanceTest(light_set())
    serial = 0
    for op, delta, execution, deadline in ops:
        if op == "admit":
            serial += 1
            arrival = ledger.now + delta
            ledger.admit(f"t{serial}", arrival=arrival,
                         execution=execution, deadline=deadline)
        elif op == "advance":
            now = ledger.now + delta
            expired = ledger.advance(now)
            # Expiry boundary: every expired task had deadline <= now,
            # every survivor a deadline strictly beyond it.
            assert all(d > now for __, __, d, __ in ledger.live_tasks())
            assert len(expired) == len(set(expired))
        else:
            ledger.release(f"t{max(serial, 1)}")
        result = ledger.reconcile()
        assert result.clean, result.divergences
    # The live set must always satisfy the admission invariant the
    # incremental check relies on: committed == sum of live executions.
    stats = ledger.stats()
    assert stats.committed == sum(
        execution for __, __, __, execution in ledger.live_tasks())
    # Cross-check a final admission decision against the authoritative
    # trial-schedule test on an empty system: a candidate the ledger
    # admits into a fresh ledger is also trial-admissible.
    probe = AperiodicTask(name="probe", arrival=0, execution=1, deadline=10)
    fresh = SlackLedger(light_set())
    if fresh.admit("probe", arrival=0, execution=1, deadline=10).admitted:
        assert acceptance.quick_reject(probe) is False
