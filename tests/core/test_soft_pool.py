"""Differential test of CoEfficient's unified soft-aperiodic pool.

:class:`HeapPoolPolicy` keeps the pool as one heap of
``(queue key, pending)`` entries, popped in key order with oversized and
not-yet-generated entries pushed back.  It is the straightforward
reading of "most urgent live message that fits", and serves as the
oracle: ``CoEfficientPolicy`` must return the same frame, drop the same
stale entries and report the same backlog after every arrival, pop and
hold.
"""

import heapq
from typing import List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.coefficient import CoEfficientPolicy
from repro.core.queueing import QueueingPolicyBase
from repro.faults.ber import BitErrorRateModel
from repro.flexray.params import FlexRayParams
from repro.packing.frame_packing import pack_signals
from repro.protocol.channel import Channel
from repro.protocol.frame import Frame, FrameKind, PendingFrame
from repro.protocol.signal import Signal, SignalSet

_PARAMS = FlexRayParams(
    gd_macrotick_us=1.0, gd_cycle_mt=800, gd_static_slot_mt=40,
    g_number_of_static_slots=10, gd_minislot_mt=8,
    g_number_of_minislots=40, channel_count=2,
)
# The pool never reads the packing; the policy only needs one to exist.
_PACKING = pack_signals(SignalSet([
    Signal(name="p", ecu=0, period_ms=0.8, offset_ms=0.0,
           deadline_ms=0.8, size_bits=64),
]), _PARAMS)
_PAYLOADS = (64, 128, 200, 256, 480)
_BOUNDS = (None, 63, 64, 127, 128, 200, 255, 256, 480)


class HeapPoolPolicy(CoEfficientPolicy):
    """CoEfficient with the single-heap soft pool (the oracle)."""

    def __init__(self, drop_expired_dynamic: bool) -> None:
        super().__init__(_PACKING, BitErrorRateModel(ber_channel_a=0.0),
                         drop_expired_dynamic=drop_expired_dynamic)
        self._soft_heap: List[tuple] = []

    def route_dynamic_arrival(self, pending: PendingFrame) -> None:
        heapq.heappush(self._soft_heap, (pending.queue_key(), pending))
        self._dynamic_backlog += 1

    def _pop_soft(self, max_payload_bits: Optional[int],
                  now_mt: int) -> Optional[PendingFrame]:
        skipped: List[tuple] = []
        result: Optional[PendingFrame] = None
        while self._soft_heap:
            entry = heapq.heappop(self._soft_heap)
            __, pending = entry
            if (self.drop_expired_dynamic
                    and pending.deadline_mt < now_mt):
                self._dynamic_backlog -= 1
                self.counters["stale_drops"] += 1
                continue
            if pending.generation_time_mt > now_mt:
                skipped.append(entry)
                continue
            if (max_payload_bits is not None
                    and pending.payload_bits > max_payload_bits):
                skipped.append(entry)
                continue
            result = pending
            self._dynamic_backlog -= 1
            break
        for entry in skipped:
            heapq.heappush(self._soft_heap, entry)
        return result

    def _push_soft(self, pending: PendingFrame) -> None:
        heapq.heappush(self._soft_heap, (pending.queue_key(), pending))
        self._dynamic_backlog += 1

    def pending_work(self) -> int:
        return (QueueingPolicyBase.pending_work(self)
                + len(self._soft_heap))


def _messages(catalogue):
    """``(chunk frames, priority, relative deadline)`` per message."""
    messages = []
    for index, (payloads, priority, relative) in enumerate(catalogue):
        frames = tuple(
            Frame(frame_id=20 + index, message_id=f"m{index}",
                  payload_bits=payload, producer_ecu=0,
                  kind=FrameKind.DYNAMIC, chunk=chunk,
                  chunk_count=len(payloads))
            for chunk, payload in enumerate(payloads))
        messages.append((frames, priority, relative))
    return messages


class _Pools:
    """The policy under test and the oracle, driven in lock step."""

    def __init__(self, catalogue, drop_expired: bool) -> None:
        self.policy = CoEfficientPolicy(
            _PACKING, BitErrorRateModel(ber_channel_a=0.0),
            drop_expired_dynamic=drop_expired)
        self.oracle = HeapPoolPolicy(drop_expired)
        self.messages = _messages(catalogue)
        self.last_generation = [0] * len(self.messages)
        self.instances = [0] * len(self.messages)
        self.now = 0
        self.popped: List[PendingFrame] = []

    def arrive(self, message: int, offset: int) -> None:
        frames, priority, relative = self.messages[message]
        generation = max(self.last_generation[message], self.now + offset)
        self.last_generation[message] = generation
        instance = self.instances[message]
        self.instances[message] += 1
        for frame in frames:
            pending = PendingFrame(frame, instance, generation,
                                   generation + relative, priority,
                                   FrameKind.DYNAMIC)
            self.policy.route_dynamic_arrival(pending)
            self.oracle.route_dynamic_arrival(pending)

    def pop(self, bound: Optional[int], advance: int) -> None:
        self.now += advance
        got = self.policy._pop_soft(bound, self.now)
        expected = self.oracle._pop_soft(bound, self.now)
        assert got is expected
        if got is not None:
            assert bound is None or got.payload_bits <= bound
            self.popped.append(got)

    def hold(self, pick: int) -> None:
        if self.popped:
            pending = self.popped.pop(pick % len(self.popped))
            self.policy.on_dynamic_hold(pending, Channel.A)
            self.oracle.on_dynamic_hold(pending, Channel.A)

    def check(self) -> None:
        policy, oracle = self.policy, self.oracle
        assert policy.counters == oracle.counters
        assert policy._dynamic_backlog == oracle._dynamic_backlog
        assert policy.pending_work() == oracle.pending_work()
        assert policy._dynamic_backlog == len(oracle._soft_heap)

    def run(self, ops) -> None:
        for op in ops:
            getattr(self, op[0])(*op[1:])
            self.check()


_catalogue = st.lists(
    st.tuples(st.lists(st.sampled_from(_PAYLOADS), min_size=1, max_size=3),
              st.integers(0, 2),
              st.sampled_from((0, 20, 60, 400))),
    min_size=1, max_size=4)
_op = st.one_of(
    st.tuples(st.just("arrive"), st.integers(0, 3), st.integers(-40, 60)),
    st.tuples(st.just("pop"), st.sampled_from(_BOUNDS), st.integers(0, 40)),
    st.tuples(st.just("hold"), st.integers(0, 3)),
)


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    # An expired oversized entry ahead of the result is dropped with it.
    @example(catalogue=[([480], 0, 0), ([64], 1, 400)], drop_expired=True,
             ops=[("arrive", 0, 0), ("arrive", 1, 0), ("pop", 64, 5)])
    @given(catalogue=_catalogue, drop_expired=st.booleans(),
           ops=st.lists(_op, min_size=10, max_size=80))
    def test_matches_the_heap_pool(self, catalogue, drop_expired, ops):
        pools = _Pools(catalogue, drop_expired)
        pools.run([(op[0], op[1] % len(catalogue), op[2])
                   if op[0] == "arrive" else op for op in ops])


def _pool(drop_expired: bool = True) -> _Pools:
    # m0: one 480-bit chunk, most urgent; m1: 64 + 128-bit chunks.
    return _Pools([([480], 0, 20), ([64, 128], 1, 400)], drop_expired)


class TestCases:
    def test_expired_oversized_entry_before_the_result_is_dropped(self):
        pools = _pool()
        pools.run([("arrive", 0, 0), ("arrive", 1, 0), ("pop", 64, 30)])
        assert pools.policy.counters["stale_drops"] == 1
        assert pools.policy._dynamic_backlog == 1

    def test_expired_entry_after_the_result_stays(self):
        # m1 is more urgent here, so the expired m0 entry sorts after
        # the result and survives the pop.
        pools = _Pools([([480], 1, 20), ([64], 0, 400)], True)
        pools.run([("arrive", 0, 0), ("arrive", 1, 0), ("pop", None, 30)])
        assert pools.policy.counters["stale_drops"] == 0
        assert pools.policy._dynamic_backlog == 1
        pools.run([("pop", None, 0)])
        assert pools.policy.counters["stale_drops"] == 1

    def test_no_result_drops_every_expired_entry(self):
        pools = _pool()
        pools.run([("arrive", 0, 0), ("arrive", 0, 0), ("arrive", 1, 100),
                   ("pop", 32, 50)])
        assert pools.policy.counters["stale_drops"] == 2
        assert pools.policy.pending_work() == 2

    def test_entry_due_now_is_still_live(self):
        # m0 has expired, so the pop drops it; m1 is due exactly now.
        pools = _Pools([([480], 0, 0), ([64], 1, 20)], True)
        pools.run([("arrive", 0, 0), ("arrive", 1, 0), ("pop", None, 20)])
        assert [p.message_id for p in pools.popped] == ["m1"]
        assert pools.policy.counters["stale_drops"] == 1

    def test_expired_entries_stay_without_drop_expired(self):
        pools = _pool(drop_expired=False)
        pools.run([("arrive", 0, 0), ("pop", 64, 100), ("pop", None, 0)])
        assert pools.popped[0].message_id == "m0"
        assert pools.policy.counters["stale_drops"] == 0

    def test_future_entry_is_skipped_until_generated(self):
        pools = _pool()
        pools.run([("arrive", 1, 50), ("pop", None, 10)])
        assert pools.popped == []
        pools.run([("pop", None, 40)])
        assert pools.popped[0].message_id == "m1"

    def test_hold_restores_the_key_position(self):
        pools = _pool()
        pools.run([("arrive", 1, 0), ("arrive", 1, 0), ("pop", 64, 0),
                   ("arrive", 1, 0), ("hold", 0), ("pop", 64, 0)])
        first, again = pools.popped[0], pools.popped[-1]
        assert again is first and first.instance == 0
        assert pools.policy.pending_work() == 5

    def test_bounds_filter_by_payload(self):
        pools = _pool()
        pools.run([("arrive", 1, 0), ("pop", 127, 0), ("pop", 127, 0)])
        assert [p.payload_bits for p in pools.popped] == [64]
        pools.run([("pop", 128, 0)])
        assert [p.payload_bits for p in pools.popped] == [64, 128]


@pytest.mark.parametrize("drop_expired", (True, False))
def test_pending_work_counts_the_pool(drop_expired):
    pools = _pool(drop_expired)
    pools.run([("arrive", 0, 0), ("arrive", 1, 0)])
    assert pools.policy.pending_work() == 3
