"""Message sources: the host side of the cluster.

A source turns a message description into a stream of *releases*; each
release is one message instance, possibly split into several chunk
frames by the packer.  Two source types cover the paper's task taxonomy:

- :class:`PeriodicSource` -- time-triggered signals (static segment);
  releases at ``offset + k * period`` exactly.
- :class:`SporadicSource` -- event-triggered signals (dynamic segment);
  releases separated by the minimum inter-arrival time plus seeded
  jitter, modelling the paper's interrupt-routine generators.

Sources may be *limited* to a fixed number of instances, which is how the
running-time experiments (Figures 1-2) define their workload: release N
instances, then measure the simulated time until the last is delivered.
"""

from __future__ import annotations

import abc
import heapq
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.protocol.frame import Frame, PendingFrame
from repro.sim.rng import RngStream

__all__ = ["Release", "MessageSource", "PeriodicSource", "SporadicSource",
           "ArrivalMultiplexer"]


class Release(NamedTuple):
    """One message-instance release.

    An immutable named tuple: the cluster handles one per released
    instance, and a tuple constructs several times faster than a frozen
    dataclass, whose generated ``__init__`` sets every field through
    ``object.__setattr__``.

    Attributes:
        message_id: Logical message identifier.
        instance: Job index (0-based).
        generation_time_mt: Absolute release time.
        deadline_mt: Absolute deadline.
        pendings: One :class:`PendingFrame` per chunk.
    """

    message_id: str
    instance: int
    generation_time_mt: int
    deadline_mt: int
    pendings: Sequence[PendingFrame]

    @property
    def chunks(self) -> int:
        """Number of chunk frames in this release."""
        return len(self.pendings)


def _release(chunks: Sequence[Frame], instance: int, release_time: int,
             deadline: int, priority: int) -> Release:
    """One release of ``chunks``: a :class:`PendingFrame` per chunk."""
    # Positional, in PendingFrame field order (frame, instance,
    # generation_time_mt, deadline_mt, priority, kind): keywords cost
    # a measurable share of a construction made once per chunk.
    return Release(chunks[0].message_id, instance, release_time, deadline, [
        PendingFrame(chunk, instance, release_time, deadline, priority,
                     chunk.kind)
        for chunk in chunks
    ])


class MessageSource(abc.ABC):
    """A stream of releases in nondecreasing time order."""

    @abc.abstractmethod
    def next_release_mt(self) -> Optional[int]:
        """Time of the next release, or ``None`` when exhausted."""

    @abc.abstractmethod
    def advance(self) -> Tuple[Release, Optional[int]]:
        """Produce the next release and advance the source.

        Returns the release together with the time of the one after it
        (``None`` once the source is exhausted), so the multiplexer
        pays one call per release.
        """

    def pop_release(self) -> Release:
        """Produce the next release and advance the source."""
        return self.advance()[0]

    @property
    @abc.abstractmethod
    def message_id(self) -> str:
        """Logical message this source generates."""

    @property
    @abc.abstractmethod
    def expected_instances(self) -> Optional[int]:
        """Instance limit, or ``None`` for an unbounded source."""


class PeriodicSource(MessageSource):
    """Deterministic periodic releases of a (possibly chunked) message.

    Args:
        chunks: Chunk frame templates produced by the packer; all share
            the message ID.
        period_mt: Release period in macroticks.
        offset_mt: First-release offset.
        deadline_mt: Relative deadline.
        priority: Queue priority for the pending frames.
        limit: Stop after this many instances (``None`` = unbounded).
    """

    def __init__(self, chunks: Sequence[Frame], period_mt: int, offset_mt: int,
                 deadline_mt: int, priority: int,
                 limit: Optional[int] = None) -> None:
        if not chunks:
            raise ValueError("a periodic source needs at least one chunk frame")
        ids = {frame.message_id for frame in chunks}
        if len(ids) != 1:
            raise ValueError(f"chunk frames must share a message id, got {ids}")
        if period_mt <= 0:
            raise ValueError(f"period must be positive, got {period_mt}")
        if offset_mt < 0:
            raise ValueError(f"offset must be >= 0, got {offset_mt}")
        if deadline_mt <= 0:
            raise ValueError(f"deadline must be positive, got {deadline_mt}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        self._chunks = list(chunks)
        self._period = period_mt
        self._offset = offset_mt
        self._deadline = deadline_mt
        self._priority = priority
        self._limit = limit
        self._next_instance = 0

    @property
    def message_id(self) -> str:
        return self._chunks[0].message_id

    @property
    def expected_instances(self) -> Optional[int]:
        return self._limit

    def next_release_mt(self) -> Optional[int]:
        if self._limit is not None and self._next_instance >= self._limit:
            return None
        return self._offset + self._next_instance * self._period

    def advance(self) -> Tuple[Release, Optional[int]]:
        instance = self._next_instance
        limit = self._limit
        if limit is not None and instance >= limit:
            raise RuntimeError(f"source {self.message_id} is exhausted")
        release_time = self._offset + instance * self._period
        self._next_instance = instance + 1
        release = _release(self._chunks, instance, release_time,
                           release_time + self._deadline, self._priority)
        if limit is not None and instance + 1 >= limit:
            return release, None
        return release, release_time + self._period


class SporadicSource(MessageSource):
    """Jittered sporadic releases of an event-triggered message.

    Inter-arrival times are ``min_interarrival * (1 + U[0, jitter])``
    drawn from a seeded stream, so the arrival pattern is reproducible.

    Args:
        chunks: Chunk frame templates (usually one for dynamic messages).
        min_interarrival_mt: Sporadic minimum inter-arrival time.
        offset_mt: First-release offset.
        deadline_mt: Relative (soft) deadline.
        priority: Queue priority.
        rng: Seeded stream for the jitter draws.
        jitter: Upper bound of the relative jitter (0 = strictly periodic).
        limit: Stop after this many instances (``None`` = unbounded).
    """

    def __init__(self, chunks: Sequence[Frame], min_interarrival_mt: int,
                 offset_mt: int, deadline_mt: int, priority: int,
                 rng: RngStream, jitter: float = 0.2,
                 limit: Optional[int] = None) -> None:
        if not chunks:
            raise ValueError("a sporadic source needs at least one chunk frame")
        if min_interarrival_mt <= 0:
            raise ValueError("min_interarrival must be positive")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        self._chunks = list(chunks)
        self._interarrival = min_interarrival_mt
        self._deadline = deadline_mt
        self._priority = priority
        self._rng = rng
        self._jitter = jitter
        self._limit = limit
        self._next_instance = 0
        self._next_time = offset_mt

    @property
    def message_id(self) -> str:
        return self._chunks[0].message_id

    @property
    def expected_instances(self) -> Optional[int]:
        return self._limit

    def next_release_mt(self) -> Optional[int]:
        if self._limit is not None and self._next_instance >= self._limit:
            return None
        return self._next_time

    def advance(self) -> Tuple[Release, Optional[int]]:
        instance = self._next_instance
        limit = self._limit
        if limit is not None and instance >= limit:
            raise RuntimeError(f"source {self.message_id} is exhausted")
        release_time = self._next_time
        self._next_instance = instance + 1
        gap = self._interarrival
        if self._jitter > 0:
            gap = int(gap * (1.0 + self._rng.uniform(0.0, self._jitter)))
        self._next_time = release_time + max(1, gap)
        release = _release(self._chunks, instance, release_time,
                           release_time + self._deadline, self._priority)
        if limit is not None and instance + 1 >= limit:
            return release, None
        return release, self._next_time


class ArrivalMultiplexer:
    """Merges many sources into one time-ordered release stream.

    A binary heap keyed by ``(next_release, message_id)`` keeps the merge
    deterministic when several sources release at the same instant.
    """

    def __init__(self, sources: Sequence[MessageSource]) -> None:
        self._sources = list(sources)
        self._heap: List[tuple] = []
        for index, source in enumerate(self._sources):
            release_time = source.next_release_mt()
            if release_time is not None:
                heapq.heappush(
                    self._heap, (release_time, source.message_id, index)
                )

    @property
    def exhausted(self) -> bool:
        """Whether every source has run dry."""
        return not self._heap

    def total_expected_instances(self) -> Optional[int]:
        """Sum of instance limits, or ``None`` if any source is unbounded."""
        total = 0
        for source in self._sources:
            expected = source.expected_instances
            if expected is None:
                return None
            total += expected
        return total

    def next_release_mt(self) -> Optional[int]:
        """Time of the earliest pending release across all sources."""
        return self._heap[0][0] if self._heap else None

    def pop_until(self, time_mt: int) -> List[Release]:
        """Pop every release with time <= ``time_mt``, in time order."""
        heap = self._heap
        if not heap or heap[0][0] > time_mt:
            return []
        releases: List[Release] = []
        sources = self._sources
        while heap and heap[0][0] <= time_mt:
            __, message_id, index = heap[0]
            release, next_time = sources[index].advance()
            releases.append(release)
            # Source indices make every key distinct, so replacing the
            # root in place pops in exactly the order pop+push would.
            if next_time is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (next_time, message_id, index))
        return releases
