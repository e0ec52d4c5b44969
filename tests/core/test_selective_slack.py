"""Unit tests for selective slack computation and planning."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.selective_slack import SelectiveSlackPlanner, max_level_slack
from repro.core.slack_stealing import SlackStealer
from repro.core.tasks import PeriodicTask, TaskSet
from repro.protocol.channel import Channel
from repro.protocol.schedule import ScheduleTable, SlotAssignment
from repro.obs import Observability
from repro.timeline.compiler import compile_round

from tests.flexray.test_frame import make_frame, make_pending


class TestMaxLevelSlack:
    @pytest.fixture
    def stealer(self):
        return SlackStealer(TaskSet([
            PeriodicTask(name="hi", execution=1, period=4, deadline=4),
            PeriodicTask(name="lo", execution=2, period=10, deadline=10),
        ]))

    def test_interval_slack_is_difference(self, stealer):
        total = stealer.available_aperiodic_processing(1, 20)
        head = stealer.available_aperiodic_processing(1, 5)
        assert max_level_slack(stealer, 1, 5, 15) == total - head

    def test_zero_length_interval(self, stealer):
        assert max_level_slack(stealer, 0, 10, 0) == 0

    def test_higher_level_more_slack(self, stealer):
        assert max_level_slack(stealer, 0, 0, 20) >= \
            max_level_slack(stealer, 1, 0, 20)

    def test_rejects_negative(self, stealer):
        with pytest.raises(ValueError):
            max_level_slack(stealer, 0, -1, 10)


@pytest.fixture
def planner(small_params):
    """Planner over a schedule with 8 idle slots/cycle on A, 10 on B."""
    table = ScheduleTable(small_params)
    table.assign(Channel.A, SlotAssignment(slot_id=1, frame=make_frame()))
    table.assign(Channel.A, SlotAssignment(
        slot_id=2, frame=make_frame(message_id="m2")))
    compiled = compile_round(table, table.params, [Channel.A, Channel.B])
    return SelectiveSlackPlanner(compiled, small_params)


class TestSelectiveSlackPlanner:
    def test_fits_slot_filter(self, planner, small_params):
        small = make_pending(
            frame=make_frame(
                payload_bits=small_params.static_slot_capacity_bits))
        big = make_pending(frame=make_frame(
            payload_bits=small_params.static_slot_capacity_bits + 8))
        assert planner.fits_slot(small)
        assert not planner.fits_slot(big)

    def test_supply_counts_whole_cycles(self, planner, small_params):
        cycle = small_params.gd_cycle_mt
        # Window [0, 2 cycles): cycles 0 and 1 are full -> 18 * 2.
        assert planner.supply_between(0, 2 * cycle) == 36

    def test_partial_cycles_slot_granular(self, planner, small_params):
        cycle = small_params.gd_cycle_mt
        # Window [cycle/2, 1.5 cycles): cycle 0's static segment already
        # ended (static is the first half of the cycle), and cycle 1's
        # static segment [800, 1200) lies fully inside the window -> all
        # of cycle 1's idle slots count (8 on A + 10 on B).
        assert planner.supply_between(cycle // 2, cycle + cycle // 2) == 18

    def test_window_shorter_than_slot_zero(self, planner, small_params):
        # A window inside the dynamic segment holds no static slots.
        start = small_params.static_segment_mt + 10
        assert planner.supply_between(start, start + 50) == 0

    def test_empty_window(self, planner):
        assert planner.supply_between(100, 100) == 0
        assert planner.supply_between(100, 50) == 0

    def test_promise_grant_and_reject(self, planner, small_params):
        cycle = small_params.gd_cycle_mt
        pending = make_pending(generation_time_mt=0,
                               deadline_mt=2 * cycle)
        granted = 0
        while planner.try_promise(pending, 0):
            granted += 1
            if granted > 100:
                break
        assert granted == 36  # exactly the structural supply
        assert planner.stats["rejected"] >= 1

    def test_oversized_frame_rejected_without_dynamic_share(
            self, planner, small_params):
        big = make_pending(
            frame=make_frame(
                payload_bits=small_params.static_slot_capacity_bits + 8),
            generation_time_mt=0, deadline_mt=10 * small_params.gd_cycle_mt)
        assert not planner.try_promise(big, 0)

    def test_oversized_frame_uses_dynamic_share(self, small_params):
        table = ScheduleTable(small_params)
        compiled = compile_round(table, table.params, [Channel.A, Channel.B])
        planner = SelectiveSlackPlanner(compiled, small_params,
                                        dynamic_retransmission_share=2.0)
        big = make_pending(
            frame=make_frame(
                payload_bits=small_params.static_slot_capacity_bits + 8),
            generation_time_mt=0, deadline_mt=3 * small_params.gd_cycle_mt)
        assert planner.try_promise(big, 0)

    def test_consume_releases_capacity(self, planner, small_params):
        cycle = small_params.gd_cycle_mt
        pending = make_pending(generation_time_mt=0, deadline_mt=2 * cycle)
        for _ in range(36):
            assert planner.try_promise(pending, 0)
        assert not planner.try_promise(pending, 0)
        planner.consume()
        assert planner.try_promise(pending, 0)

    def test_release_alias(self, planner, small_params):
        pending = make_pending(
            generation_time_mt=0, deadline_mt=2 * small_params.gd_cycle_mt)
        planner.try_promise(pending, 0)
        assert planner.promised == 1
        planner.release()
        assert planner.promised == 0

    def test_consume_never_negative(self, planner):
        planner.consume()
        assert planner.promised == 0

    def test_rejects_negative_share(self, planner, small_params):
        table = ScheduleTable(small_params)
        compiled = compile_round(table, table.params, [Channel.A])
        with pytest.raises(ValueError):
            SelectiveSlackPlanner(compiled, small_params,
                                  dynamic_retransmission_share=-1.0)


# ----------------------------------------------------------------------
# The supply memo: exact modulo the idle pattern
# ----------------------------------------------------------------------

def _multiplexed_planner(params, obs=None):
    """Planner whose idle pattern repeats only every 4 cycles."""
    table = ScheduleTable(params)
    for channel, slot_id, message_id, base, repetition in (
            (Channel.A, 1, "a4", 1, 4), (Channel.A, 3, "a2", 0, 2),
            (Channel.B, 2, "b4", 3, 4), (Channel.B, 7, "b1", 0, 1)):
        table.assign(channel, SlotAssignment(slot_id=slot_id, frame=make_frame(
            message_id=message_id, frame_id=slot_id, base_cycle=base,
            cycle_repetition=repetition)))
    compiled = compile_round(table, table.params, [Channel.A, Channel.B])
    assert compiled.pattern_length == 4
    kwargs = {} if obs is None else {"obs": obs}
    return SelectiveSlackPlanner(compiled, params,
                                 dynamic_retransmission_share=1.5, **kwargs)


#: The idle pattern of ``_multiplexed_planner`` on ``small_params``.
_PATTERN_MT = 4 * 800

_queries = st.lists(
    st.tuples(st.integers(0, 12 * _PATTERN_MT),       # now
              st.integers(-800, 6 * _PATTERN_MT),     # deadline - now
              st.integers(0, 5),                      # pattern shift k
              st.booleans()),                         # include_structural
    min_size=1, max_size=40)


def _uncached(planner, now, deadline, include_structural):
    """``(structural, total)`` straight from the uncached computation."""
    if deadline <= now:
        return 0, 0
    return planner._compute_supply(now, deadline, include_structural)


class TestSupplyMemo:
    # small_params is an immutable geometry, so sharing it across
    # examples is safe; every example builds a fresh planner.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(queries=_queries)
    def test_memoized_supply_equals_uncached(self, small_params, queries):
        assert small_params.gd_cycle_mt * 4 == _PATTERN_MT
        planner = _multiplexed_planner(small_params)
        for now, width, shift, structural in queries:
            for offset in (0, shift * _PATTERN_MT):
                start, end = now + offset, now + width + offset
                assert planner.supply_between(start, end, structural) \
                    == _uncached(planner, start, end, structural)[1]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(queries=_queries)
    def test_counters_match_the_uncached_path(self, small_params, queries):
        obs = Observability()
        planner = _multiplexed_planner(small_params, obs)
        expected = {"slack.table_queries": 0, "slack.table_hits": 0,
                    "slack.table_misses": 0}
        for now, width, shift, structural in queries:
            for offset in (0, shift * _PATTERN_MT):
                start, end = now + offset, now + width + offset
                planner.supply_between(start, end, structural)
                if end <= start:
                    continue  # an empty window is not a table query
                found = _uncached(planner, start, end, structural)[0]
                expected["slack.table_queries"] += 1
                expected["slack.table_hits" if found > 0
                         else "slack.table_misses"] += 1
        counters = obs.deterministic_snapshot()["counters"]
        assert {name: counters.get(name, 0) for name in expected} == expected

    def test_shifted_window_is_served_from_the_memo(self, small_params):
        planner = _multiplexed_planner(small_params)
        cycle = small_params.gd_cycle_mt
        first = planner.supply_between(130, 130 + 5 * cycle)
        assert len(planner._supply_memo) == 1
        assert planner.supply_between(130 + 3 * _PATTERN_MT,
                                      130 + 3 * _PATTERN_MT + 5 * cycle) \
            == first
        assert len(planner._supply_memo) == 1
