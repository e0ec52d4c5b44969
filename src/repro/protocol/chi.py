"""Controller-Host Interface (CHI) buffering.

Section II-B of the paper: "each node in a FlexRay cluster contains a host
and a Communication Controller (CC).  These two components are connected
by a Controller-Host Interface (CHI).  CHI becomes a buffer between the
host and CC."  Two buffer types exist:

- :class:`StaticBuffer` -- single-message buffers keyed by static slot;
  the host *overwrites* the buffer each period (sensor semantics: the
  freshest value wins), the CC reads at the slot's action point.
- :class:`PriorityOutputQueue` -- the per-frame-ID priority queues serving
  the dynamic segment; messages with the same frame ID queue FIFO within
  a priority level, and the head of the queue is sent in the current bus
  cycle.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.protocol.frame import PendingFrame

__all__ = ["StaticBuffer", "PriorityOutputQueue"]


class StaticBuffer:
    """Single-slot message buffer with overwrite semantics.

    FlexRay static buffers hold exactly one message: writing a new
    instance before the old one was transmitted *replaces* it (and the
    displaced instance is reported so the trace can count it as dropped).
    """

    def __init__(self, slot_id: int) -> None:
        if slot_id < 1:
            raise ValueError(f"slot_id must be >= 1, got {slot_id}")
        self._slot_id = slot_id
        self._current: Optional[PendingFrame] = None

    @property
    def slot_id(self) -> int:
        """Static slot this buffer feeds."""
        return self._slot_id

    @property
    def occupied(self) -> bool:
        """Whether a message instance is waiting."""
        return self._current is not None

    def write(self, pending: PendingFrame) -> Optional[PendingFrame]:
        """Host write: store an instance, returning any displaced one."""
        displaced = self._current
        self._current = pending
        return displaced

    def peek(self) -> Optional[PendingFrame]:
        """CC read without consuming."""
        return self._current

    def take(self) -> Optional[PendingFrame]:
        """CC read-and-clear at the slot action point."""
        current = self._current
        self._current = None
        return current


class PriorityOutputQueue:
    """Priority queue of pending dynamic frames for one frame ID.

    Ordered by :meth:`PendingFrame.queue_key` -- priority, then
    generation time, then a global sequence number -- so the dequeue
    order is deterministic and FIFO within a priority level, matching the
    paper's description of the dynamic-segment local output queues.
    """

    def __init__(self, frame_id: int) -> None:
        if frame_id < 1:
            raise ValueError(f"frame_id must be >= 1, got {frame_id}")
        self._frame_id = frame_id
        self._heap: List[tuple] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def frame_id(self) -> int:
        """Dynamic frame ID this queue serves."""
        return self._frame_id

    @property
    def empty(self) -> bool:
        """Whether no message is waiting."""
        return not self._heap

    def push(self, pending: PendingFrame) -> None:
        """Enqueue an instance."""
        heapq.heappush(self._heap, (pending.queue_key(), pending))

    def peek(self) -> Optional[PendingFrame]:
        """Head of the queue without consuming."""
        return self._heap[0][1] if self._heap else None

    def pop(self) -> Optional[PendingFrame]:
        """Dequeue the head (the message sent in the current bus cycle)."""
        if not self._heap:
            return None
        __, pending = heapq.heappop(self._heap)
        return pending

    def drop_expired(self, now_mt: int) -> List[PendingFrame]:
        """Remove and return instances whose deadline already passed.

        A dynamic message whose deadline expired while queued can no
        longer meet its timing requirement; real controllers would still
        send it, but for metric purposes the instance has already missed.
        We keep it queued only if the caller opts not to call this.
        """
        keep: List[tuple] = []
        expired: List[PendingFrame] = []
        for key, pending in self._heap:
            if pending.deadline_mt < now_mt:
                expired.append(pending)
            else:
                keep.append((key, pending))
        if expired:
            heapq.heapify(keep)
            self._heap = keep
        return expired

