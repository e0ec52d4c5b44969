"""Host-speed reference: a fixed pure-Python kernel timed beside the program.

The benchmark runs on a few vCPUs of a shared host whose speed drifts
with what its other tenants do: the same pure-Python loop, timed every
few seconds on an otherwise idle VM, ranged 48-100 ms within 100 s.  No
amount of work inside one run averages that away, so every time the
benchmark reports is scaled to a nominal host speed.  Beside its
operations a run times :func:`kernel` -- fixed code in this file,
never the program under test -- and multiplies the operations' times
by ``NOMINAL_S / median kernel time``.  A reported time therefore reads
as it would on a host where the kernel takes ``NOMINAL_S``; a change
to the program moves it, a slower host moves it much less (the program
and the kernel do not slow by exactly the same amount).  The raw,
unscaled figures are printed beside the result.

The kernel does the kind of work the program does: small objects, a
heap-ordered event queue, dict and list bookkeeping, float arithmetic
and a little string building.  It allocates next to nothing that
outlives a call, so it does not move ``peak_rss_mb``.

Set-up time is mostly interpreter start, file reads and unmarshalling
of imported modules, which a busy host slows differently from the
kernel, so it is scaled by its own reference instead: :func:`start_probe` times a
fresh interpreter that imports the program's third-party dependency
and some standard modules, but none of the program.
"""

from __future__ import annotations

import heapq
import random
import statistics
import subprocess
import sys
import time
from typing import List, Sequence

#: Kernel time, in seconds, on the nominal host the reported times
#: are scaled to (about what a 2.1 GHz Xeon vCPU takes when idle).
NOMINAL_S = 0.005
#: Kernel timings per probe, after one untimed warm-up call.
PROBE_REPS = 5

#: The start-up reference: a fresh interpreter importing modules the
#: program imports, none of them the program's own.
START_COMMAND = (sys.executable, "-c",
                 "import numpy, argparse, asyncio, dataclasses, json, "
                 "sqlite3, statistics")
#: Its time, in seconds, on the nominal host.
NOMINAL_START_S = 0.15


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time_: float, key: int, value: int):
        self.time = time_
        self.key = key
        self.value = value

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def kernel() -> int:
    """Fixed work: a small event queue feeding per-key buckets."""
    rng = random.Random(7)
    queue: List[_Event] = []
    buckets = {}
    total = 0.0
    for index in range(6000):
        heapq.heappush(queue, _Event(rng.random() * 100.0, index & 255,
                                     index))
        if len(queue) > 64:
            event = heapq.heappop(queue)
            bucket = buckets.get(event.key)
            if bucket is None:
                bucket = buckets[event.key] = []
            bucket.append(event.value)
            total += event.time * 0.5
            if len(bucket) > 8:
                total += sum(bucket) / len(bucket)
                bucket.clear()
    return len(",".join(str(key) for key in sorted(buckets))) + int(total)


def probe() -> float:
    """Seconds the kernel takes on this host now (mean of a few).

    The first call in a process runs slower (cold caches, fresh memory
    arenas), so each probe starts with an untimed call.
    """
    kernel()
    times = []
    for __ in range(PROBE_REPS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


def start_probe() -> float:
    """Seconds the start-up reference takes on this host now.

    One start per phase; set-up time is scaled by the median over
    phases.
    """
    start = time.perf_counter()
    subprocess.run(START_COMMAND, check=True)
    return time.perf_counter() - start


def factor(probes: Sequence[float]) -> float:
    """Scale factor for times measured beside ``probes``.

    Multiply a time by it, or divide a rate by it.  A busy host flickers
    between fast and slow stretches, and an operation that lasts a
    fraction of a second or more runs at their average speed; so the
    factor uses the mean probe.  A median would jump from one speed to
    the other as their shares pass one half.
    """
    return NOMINAL_S / statistics.fmean(probes)


def start_factor(probe_s: float) -> float:
    """Scale factor for a set-up time measured beside a start probe."""
    return NOMINAL_START_S / probe_s
