"""Unit tests for message sources and the arrival multiplexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.arrivals import (
    ArrivalMultiplexer,
    PeriodicSource,
    SporadicSource,
)
from repro.protocol.frame import FrameKind
from repro.sim.rng import RngStream

from tests.flexray.test_frame import make_frame


def periodic(message_id="m", period=100, offset=10, deadline=80,
             limit=None, chunks=1):
    frames = [
        make_frame(message_id=message_id, chunk=i, chunk_count=chunks)
        for i in range(chunks)
    ]
    return PeriodicSource(chunks=frames, period_mt=period, offset_mt=offset,
                          deadline_mt=deadline, priority=5, limit=limit)


def sporadic(message_id="a", interarrival=100, offset=10, deadline=80,
             limit=None, jitter=0.2, seed=9):
    frame = make_frame(message_id=message_id, kind=FrameKind.DYNAMIC)
    return SporadicSource(chunks=[frame], min_interarrival_mt=interarrival,
                          offset_mt=offset, deadline_mt=deadline, priority=5,
                          rng=RngStream(seed, "sporadic-test"),
                          jitter=jitter, limit=limit)


class TestPeriodicSource:
    def test_release_times(self):
        source = periodic()
        times = []
        for _ in range(3):
            release = source.pop_release()
            times.append(release.generation_time_mt)
        assert times == [10, 110, 210]

    def test_deadlines(self):
        release = periodic().pop_release()
        assert release.deadline_mt == 90

    def test_instances_numbered(self):
        source = periodic()
        assert source.pop_release().instance == 0
        assert source.pop_release().instance == 1

    def test_limit(self):
        source = periodic(limit=2)
        source.pop_release()
        source.pop_release()
        assert source.next_release_mt() is None
        with pytest.raises(RuntimeError):
            source.pop_release()

    def test_expected_instances(self):
        assert periodic(limit=5).expected_instances == 5
        assert periodic().expected_instances is None

    def test_chunked_release(self):
        release = periodic(chunks=3).pop_release()
        assert release.chunks == 3
        chunk_indices = {p.frame.chunk for p in release.pendings}
        assert chunk_indices == {0, 1, 2}
        assert all(p.instance == 0 for p in release.pendings)

    def test_rejects_empty_chunks(self):
        with pytest.raises(ValueError):
            PeriodicSource(chunks=[], period_mt=10, offset_mt=0,
                           deadline_mt=10, priority=1)

    def test_rejects_mixed_message_ids(self):
        with pytest.raises(ValueError):
            PeriodicSource(
                chunks=[make_frame(message_id="a"),
                        make_frame(message_id="b")],
                period_mt=10, offset_mt=0, deadline_mt=10, priority=1,
            )

    @pytest.mark.parametrize("kwargs", [
        {"period": 0}, {"offset": -1}, {"deadline": 0}, {"limit": -1},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            periodic(**kwargs)


class TestSporadicSource:
    def test_minimum_interarrival_respected(self):
        source = sporadic(interarrival=100, jitter=0.5)
        times = [source.pop_release().generation_time_mt for _ in range(20)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 100 for gap in gaps)

    def test_jitter_bounded(self):
        source = sporadic(interarrival=100, jitter=0.2)
        times = [source.pop_release().generation_time_mt for _ in range(20)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap <= 120 for gap in gaps)

    def test_zero_jitter_is_periodic(self):
        source = sporadic(interarrival=100, jitter=0.0)
        times = [source.pop_release().generation_time_mt for _ in range(5)]
        assert times == [10, 110, 210, 310, 410]

    def test_reproducible(self):
        times_a = [sporadic(seed=4).pop_release().generation_time_mt
                   for _ in range(1)]
        times_b = [sporadic(seed=4).pop_release().generation_time_mt
                   for _ in range(1)]
        assert times_a == times_b

    def test_limit(self):
        source = sporadic(limit=1)
        source.pop_release()
        assert source.next_release_mt() is None


class TestArrivalMultiplexer:
    def test_merges_in_time_order(self):
        mux = ArrivalMultiplexer([
            periodic(message_id="late", offset=50, limit=1),
            periodic(message_id="early", offset=5, limit=1),
        ])
        releases = mux.pop_until(1000)
        assert [r.message_id for r in releases] == ["early", "late"]

    def test_pop_until_partial(self):
        mux = ArrivalMultiplexer([periodic(message_id="m", offset=10,
                                           period=100, limit=5)])
        first = mux.pop_until(150)
        assert len(first) == 2
        assert mux.next_release_mt() == 210

    def test_exhaustion(self):
        mux = ArrivalMultiplexer([periodic(limit=1)])
        assert not mux.exhausted
        mux.pop_until(10_000)
        assert mux.exhausted

    def test_total_expected(self):
        mux = ArrivalMultiplexer([periodic(limit=3),
                                  periodic(message_id="n", limit=4)])
        assert mux.total_expected_instances() == 7

    def test_total_expected_unbounded(self):
        mux = ArrivalMultiplexer([periodic(limit=3), periodic(message_id="n")])
        assert mux.total_expected_instances() is None

    def test_deterministic_tie_break(self):
        mux = ArrivalMultiplexer([
            periodic(message_id="b", offset=10, limit=1),
            periodic(message_id="a", offset=10, limit=1),
        ])
        releases = mux.pop_until(10)
        assert [r.message_id for r in releases] == ["a", "b"]

    def test_empty_multiplexer(self):
        mux = ArrivalMultiplexer([])
        assert mux.exhausted
        assert mux.pop_until(100) == []
        assert mux.next_release_mt() is None

    def test_advance_returns_the_next_release_time(self):
        for source in (periodic(limit=3), sporadic(limit=3)):
            while source.next_release_mt() is not None:
                release, next_time = source.advance()
                assert next_time == source.next_release_mt()
                assert release.instance >= 0
            with pytest.raises(RuntimeError):
                source.advance()


#: One random source: (kind, offset, period, chunks, limit, seed).
_SOURCE = st.tuples(
    st.sampled_from(["periodic", "sporadic"]),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([10, 20, 25, 40]),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    st.integers(min_value=0, max_value=3),
)


def _build_sources(specs, names):
    sources = []
    for (kind, offset, period, chunks, limit, seed), name in zip(specs,
                                                                 names):
        if kind == "periodic":
            sources.append(periodic(message_id=name, period=period,
                                    offset=offset, deadline=period,
                                    limit=limit, chunks=chunks))
        else:
            frames = [make_frame(message_id=name, chunk=i,
                                 chunk_count=chunks, kind=FrameKind.DYNAMIC)
                      for i in range(chunks)]
            sources.append(SporadicSource(
                chunks=frames, min_interarrival_mt=period, offset_mt=offset,
                deadline_mt=period, priority=5,
                rng=RngStream(seed, f"mux-{name}"), jitter=0.5,
                limit=limit))
    return sources


def _one_at_a_time(sources, horizon):
    """The reference merge: pop the earliest (time, message_id) release,
    one ``pop_release`` at a time, up to ``horizon``."""
    order = []
    while True:
        due = [(source.next_release_mt(), source.message_id, index)
               for index, source in enumerate(sources)
               if source.next_release_mt() is not None]
        if not due or min(due)[0] > horizon:
            return order
        __, ___, index = min(due)
        release = sources[index].pop_release()
        order.append((release.generation_time_mt, release.message_id,
                      release.instance, len(release.pendings)))


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(_SOURCE, min_size=1, max_size=6),
       names=st.permutations(["a", "b", "c", "d", "e", "f"]),
       steps=st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                      max_size=8))
def test_batched_pop_until_matches_popping_one_release_at_a_time(
        specs, names, steps):
    """Same-instant ties (equal offsets and periods) must break by
    message ID, whatever the order the sources were given in."""
    horizon = 0
    batched = []
    mux = ArrivalMultiplexer(_build_sources(specs, names))
    for step in steps:
        horizon += step
        for release in mux.pop_until(horizon):
            assert [p.frame.chunk for p in release.pendings] == \
                list(range(len(release.pendings)))
            batched.append((release.generation_time_mt, release.message_id,
                            release.instance, len(release.pendings)))
    assert batched == _one_at_a_time(_build_sources(specs, names), horizon)
