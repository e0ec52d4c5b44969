"""Property-based tests on the FlexRay substrate invariants."""


from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.protocol.channel import Channel
from repro.protocol.cycle import CycleLayout
from repro.protocol.frame import Frame
from repro.flexray.params import FRAME_OVERHEAD_BITS, FlexRayParams
from repro.protocol.schedule import (
    ChannelStrategy,
    ScheduleInfeasibleError,
    build_dual_schedule,
    patterns_conflict,
)
from repro.protocol.slots import MinislotCounter


# ----------------------------------------------------------------------
# Parameter geometry invariants
# ----------------------------------------------------------------------

@st.composite
def params_strategy_fn(draw):
    """Generate only geometrically valid parameter sets."""
    slot_mt = draw(st.sampled_from([30, 40, 60, 100]))
    static_slots = draw(st.integers(min_value=2, max_value=30))
    minislot_mt = draw(st.sampled_from([4, 8]))
    minislots = draw(st.integers(min_value=0, max_value=50))
    used = slot_mt * static_slots + minislot_mt * minislots
    cycle = used + draw(st.integers(min_value=0, max_value=2000))
    return FlexRayParams(
        gd_cycle_mt=cycle,
        gd_static_slot_mt=slot_mt,
        g_number_of_static_slots=static_slots,
        gd_minislot_mt=minislot_mt,
        g_number_of_minislots=minislots,
    )


params_strategy = params_strategy_fn()


@settings(max_examples=60, deadline=None)
@given(params=params_strategy)
def test_segments_partition_cycle(params):
    total = (params.static_segment_mt + params.dynamic_segment_mt
             + params.gd_symbol_window_mt + params.nit_mt)
    assert total == params.gd_cycle_mt
    assert params.nit_mt >= 0


@settings(max_examples=60, deadline=None)
@given(params=params_strategy,
       bits=st.integers(min_value=0, max_value=2000))
def test_minislot_count_covers_transmission(params, bits):
    """The minislots charged always cover the frame's wire time."""
    slots = params.minislots_for_bits(bits)
    usable_mt = ((slots - params.gd_dynamic_slot_idle_phase_minislots)
                 * params.gd_minislot_mt)
    needed = params.transmission_mt(bits + FRAME_OVERHEAD_BITS) \
        + params.gd_minislot_action_point_offset_mt
    assert usable_mt >= needed


@settings(max_examples=60, deadline=None)
@given(params=params_strategy,
       cycle=st.integers(min_value=0, max_value=100))
def test_slot_windows_tile_and_nest(params, cycle):
    layout = CycleLayout(params)
    cycle_start = layout.cycle_start(cycle)
    cycle_end = layout.cycle_start(cycle + 1)
    previous_end = cycle_start
    for slot in range(1, params.g_number_of_static_slots + 1):
        start, end = layout.static_slot_window(cycle, slot)
        assert start == previous_end
        assert cycle_start <= start < end <= cycle_end
        previous_end = end
    dyn_start, dyn_end = layout.dynamic_segment_window(cycle)
    assert dyn_start == previous_end
    assert dyn_end <= cycle_end


# ----------------------------------------------------------------------
# Cycle-multiplexing pattern algebra
# ----------------------------------------------------------------------

power_of_two = st.sampled_from([1, 2, 4, 8, 16, 32, 64])


@settings(max_examples=100, deadline=None)
@given(rep_a=power_of_two, rep_b=power_of_two, data=st.data())
def test_patterns_conflict_iff_cycles_intersect(rep_a, rep_b, data):
    """The O(1) conflict predicate agrees with brute-force enumeration."""
    base_a = data.draw(st.integers(min_value=0, max_value=rep_a - 1))
    base_b = data.draw(st.integers(min_value=0, max_value=rep_b - 1))
    horizon = rep_a * rep_b * 2
    fires_a = {c for c in range(horizon) if c % rep_a == base_a}
    fires_b = {c for c in range(horizon) if c % rep_b == base_b}
    assert patterns_conflict(base_a, rep_a, base_b, rep_b) == \
        bool(fires_a & fires_b)


# ----------------------------------------------------------------------
# Schedule builder invariants
# ----------------------------------------------------------------------

frame_specs = st.lists(
    st.tuples(
        power_of_two,                                # repetition
        st.integers(min_value=32, max_value=200),    # payload bits
        st.integers(min_value=0, max_value=63),      # base seed
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(specs=frame_specs,
       strategy=st.sampled_from([ChannelStrategy.DISTRIBUTE,
                                 ChannelStrategy.REPLICATE,
                                 ChannelStrategy.DUPLICATE_BEST_EFFORT]))
def test_built_schedules_have_no_double_booking(specs, strategy):
    """Whatever the builder produces, no (channel, cycle, slot) carries
    two frames -- the fundamental TDMA invariant."""
    params = FlexRayParams(
        gd_cycle_mt=2000, gd_static_slot_mt=40,
        g_number_of_static_slots=12, g_number_of_minislots=10,
    )
    frames = [
        Frame(frame_id=1, message_id=f"m{i}", payload_bits=bits,
              producer_ecu=0, base_cycle=base % rep, cycle_repetition=rep,
              base_flexibility=rep - 1)
        for i, (rep, bits, base) in enumerate(specs)
    ]
    try:
        table = build_dual_schedule(frames, params, strategy)
    except ScheduleInfeasibleError:
        assume(False)
        return
    for channel in (Channel.A, Channel.B):
        for cycle in range(64):
            seen = {}
            for slot in range(1, params.g_number_of_static_slots + 1):
                frame = table.lookup(channel, cycle, slot)
                if frame is not None:
                    key = (cycle, slot)
                    assert key not in seen
                    seen[key] = frame.message_id


@settings(max_examples=40, deadline=None)
@given(specs=frame_specs)
def test_distribute_places_every_frame_exactly_once(specs):
    params = FlexRayParams(
        gd_cycle_mt=2000, gd_static_slot_mt=40,
        g_number_of_static_slots=12, g_number_of_minislots=10,
    )
    frames = [
        Frame(frame_id=1, message_id=f"m{i}", payload_bits=bits,
              producer_ecu=0, base_cycle=base % rep, cycle_repetition=rep,
              base_flexibility=rep - 1)
        for i, (rep, bits, base) in enumerate(specs)
    ]
    try:
        table = build_dual_schedule(frames, params,
                                    ChannelStrategy.DISTRIBUTE)
    except ScheduleInfeasibleError:
        assume(False)
        return
    placed = [f.message_id for f in
              table.frames(Channel.A) + table.frames(Channel.B)]
    assert sorted(placed) == sorted(f.message_id for f in frames)


# ----------------------------------------------------------------------
# Minislot counter invariants
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=100),
    consumptions=st.lists(st.integers(min_value=0, max_value=30),
                          max_size=20),
)
def test_minislot_counter_conserves(total, consumptions):
    counter = MinislotCounter(total)
    consumed_sum = 0
    for amount in consumptions:
        consumed_sum += counter.consume(amount)
    assert counter.elapsed == consumed_sum
    assert counter.elapsed + counter.remaining == total
    assert counter.remaining >= 0
