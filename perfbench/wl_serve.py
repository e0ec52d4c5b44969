"""``serve-mixed``: a closed loop of callers against ``repro serve --workload bbw``.

The service runs in one child process (this file, run with ``--child``);
the load comes from the benchmark process: 64 callers, each with one
request outstanding, over 2 connections.  The seeded stream alternates
steady blocks (mean inter-arrival 8 ticks) with bursty blocks (2
ticks); 30 % of accepted admits are followed by a release, and every
50th admit by a ``stats`` read.

Verdicts are a function of the stream: each channel's requests travel
on that channel's own connection, in stream order, and the server
answers a connection's lines one at a time, so every ledger sees its
requests in the same order on every run.  A release is written at a
fixed stream position (``RELEASE_LAG`` admits after its admit); the
caller that reaches it waits for the admit's verdict first, as an ECU
waits for a verdict before it retransmits.  The verdicts of each
complete block of ``BLOCK`` stream items are digested and compared
with the digests pinned for the seed; past the pinned blocks, or on a
seed that is not pinned, the check is zero errors, drops, overload
replies and reconcile divergence.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import resource
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import calib
from common import (SRC, Outcome, load_pins, nearest_rank, run_scale,
                    scaled_setup_s, tail)
from layers import (finish_trace, merge_totals, phase_totals,
                    service_targets, write_spans)
from spans import Patcher, Tracer, snapshot

CALLERS = 64
CHANNELS = ("A", "B")
#: Admits per steady or bursty block of the stream.
PHASE_ADMITS = 400
STEADY_TICKS = 8.0
BURSTY_TICKS = 2.0
RELEASE_SHARE = 0.3
RELEASE_LAG = 64
STATS_EVERY = 50
DEADLINE_TICKS = 500
#: Stream items per verdict-digest block.
BLOCK = 512
#: Service processes one run is split over, one after the other.
PHASES = 8
#: Stretches of the closed loop per service, with a host-speed probe
#: between each two.
SEGMENTS = 5


@dataclass(frozen=True)
class Item:
    """One stream item: ``admit``, ``release`` (of ``ref``) or ``stats``."""

    kind: str
    name: str
    channel: str = "A"
    arrival: int = 0
    execution: int = 0
    ref: int = -1

    def line(self, ident: str) -> bytes:
        if self.kind == "admit":
            payload = {"op": "admit", "id": ident, "name": self.name,
                       "channel": self.channel, "arrival": self.arrival,
                       "execution": self.execution,
                       "deadline": DEADLINE_TICKS}
        elif self.kind == "release":
            payload = {"op": "release", "id": ident, "name": self.name,
                       "channel": self.channel}
        else:
            payload = {"op": "stats", "id": ident}
        return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def stream(seed: int) -> Iterator[Item]:
    """The seeded, unbounded request stream (same seed, same items)."""
    rng = random.Random(seed)
    clock = 0.0
    admits = 0
    due: Deque[Tuple[int, Item]] = deque()  # (admit count, release item)
    position = 0
    while True:
        if due and due[0][0] <= admits:
            yield due.popleft()[1]
            position += 1
            continue
        bursty = (admits // PHASE_ADMITS) % 2 == 1
        clock += rng.expovariate(
            1.0 / (BURSTY_TICKS if bursty else STEADY_TICKS))
        channel = CHANNELS[rng.randrange(len(CHANNELS))]
        name = f"r{admits:07d}"
        yield Item("admit", name, channel, int(clock), rng.randint(1, 4))
        if rng.random() < RELEASE_SHARE:
            due.append((admits + RELEASE_LAG,
                        Item("release", name, channel, ref=position)))
        position += 1
        admits += 1
        if admits % STATS_EVERY == 0:
            yield Item("stats", f"s{admits:07d}")
            position += 1


# ----------------------------------------------------------------------
# Load side (benchmark process)
# ----------------------------------------------------------------------

class Load:
    """Closed-loop load state of one phase against one service."""

    def __init__(self, seed: int):
        self.items = stream(seed)
        self.position = 0
        self.verdicts: Dict[int, str] = {}      # position -> digest line
        self.admit_status: Dict[int, str] = {}  # position -> reply status
        self.admit_ms: List[float] = []
        self.stats_ms: List[float] = []
        self.completed = 0
        self.statuses: Dict[str, int] = {}
        self.dropped = 0
        #: A release waiting for its admit's verdict when a stretch of
        #: the loop ended; the next stretch sends it first.
        self.pending: Optional[Item] = None

    def block_digests(self) -> List[str]:
        """Digests of every leading block whose items all completed."""
        digests = []
        start = 0
        while all(index in self.verdicts
                  for index in range(start, start + BLOCK)):
            text = "\n".join(self.verdicts[index]
                             for index in range(start, start + BLOCK))
            digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
            start += BLOCK
        return digests

    def record(self, position: int, item: Item, reply: Dict[str, object],
               elapsed_ms: float) -> None:
        status = str(reply.get("status"))
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.completed += 1
        if item.kind == "admit":
            self.admit_ms.append(elapsed_ms)
            self.admit_status[position] = status
            self.verdicts[position] = (
                f"{item.name} {status} {reply.get('window_slack')} "
                f"{reply.get('arrival')}")
        elif item.kind == "release":
            self.verdicts[position] = f"{item.name} {status}"
        else:
            self.stats_ms.append(elapsed_ms)
            self.verdicts[position] = f"{item.name} stats {status}"


class Connection:
    """One pipelined connection; the server answers its lines in order."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.waiting: Deque[Tuple[int, Item, float]] = deque()
        self.outgoing: List[bytes] = []
        self.partial = b""

    def queue(self, position: int, item: Item) -> None:
        self.outgoing.append(item.line(f"q{position}"))
        self.waiting.append((position, item, 0.0))

    def flush(self) -> None:
        """Write every queued line at once; their clocks start now."""
        if not self.outgoing:
            return
        now = time.perf_counter()
        fresh = len(self.outgoing)
        for index in range(len(self.waiting) - fresh, len(self.waiting)):
            position, item, __ = self.waiting[index]
            self.waiting[index] = (position, item, now)
        self.sock.sendall(b"".join(self.outgoing))
        self.outgoing.clear()

    def replies(self) -> List[Tuple[int, Item, Dict[str, object], float]]:
        """Read what has arrived; (position, item, reply, ms) in order."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("service closed the connection")
        now = time.perf_counter()
        *lines, self.partial = (self.partial + data).split(b"\n")
        done = []
        for line in lines:
            position, item, start = self.waiting.popleft()
            reply = json.loads(line)
            if reply.get("id") != f"q{position}":
                reply = {"status": "error",
                         "reason": f"reply for {reply.get('id')!r} where "
                                   f"q{position} was expected"}
            done.append((position, item, reply, (now - start) * 1000.0))
        return done

    def close(self) -> None:
        self.sock.close()


def ping(port: int) -> None:
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(b'{"op":"ping","id":"ping"}\n')
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    if json.loads(reply or b"{}").get("status") != "ok":
        raise RuntimeError(f"ping failed: {reply!r}")


def drive(port: int, load: Load, seconds: float,
          stop_position: Optional[int] = None) -> float:
    """Run the closed loop for ``seconds`` (or to ``stop_position``).

    ``CALLERS`` callers each keep one request outstanding: a reply frees
    its caller, which takes the next stream item.  Items are taken in
    stream order; a caller that reaches a release whose admit has not
    been answered waits for that verdict, and the callers behind it wait
    too, so every connection carries its lines in stream order.
    """
    connections = {channel: Connection(port) for channel in CHANNELS}
    by_socket = {conn.sock: conn for conn in connections.values()}
    selector = selectors.DefaultSelector()
    for conn in connections.values():
        selector.register(conn.sock, selectors.EVENT_READ)
    free = CALLERS
    begin = time.perf_counter()
    deadline = begin + seconds

    def over() -> bool:
        if stop_position is not None:
            return load.position >= stop_position
        return time.perf_counter() >= deadline

    try:
        while True:
            while free and not over():
                item = load.pending or next(load.items)
                load.pending = None
                if item.kind == "release":
                    status = load.admit_status.get(item.ref)
                    if status is None:
                        load.pending = item  # wait for its verdict
                        break
                    if status != "accepted":
                        load.verdicts[load.position] = (
                            f"{item.name} no-release")
                        load.position += 1
                        continue
                channel = (CHANNELS[load.position % len(CHANNELS)]
                           if item.kind == "stats" else item.channel)
                connections[channel].queue(load.position, item)
                load.position += 1
                free -= 1
            for conn in connections.values():
                conn.flush()
            if free == CALLERS:
                break
            for key, __ in selector.select():
                for position, item, reply, elapsed_ms in \
                        by_socket[key.fileobj].replies():
                    load.record(position, item, reply, elapsed_ms)
                    free += 1
    except ConnectionError:
        load.dropped += CALLERS - free
    finally:
        selector.close()
        for conn in connections.values():
            conn.close()
    return time.perf_counter() - begin


# ----------------------------------------------------------------------
# Service child process management
# ----------------------------------------------------------------------

class ServiceProcess:
    """``repro serve --workload bbw`` in a child process."""

    def __init__(self, phase: int = 0, trace: bool = False):
        command = [sys.executable, os.path.abspath(__file__), "--child",
                   str(phase)]
        if trace:
            command.append("--trace")
        started = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)
        try:
            line = self.process.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"service did not start: {line!r}")
            self.port = int(line.split()[1])
            ping(self.port)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def stop(self) -> Dict[str, object]:
        """Drain the service (SIGTERM) and return its final report."""
        self.process.send_signal(signal.SIGTERM)
        out, __ = self.process.communicate(timeout=60)
        for line in out.splitlines():
            if line.startswith("RESULT "):
                return json.loads(line[len("RESULT "):])
        raise RuntimeError(f"service exited {self.process.returncode} "
                           f"without a report")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)
        self.process.stdout.close()


def _phase(service: ServiceProcess, seed: int, seconds: float,
           stop_position: Optional[int] = None
           ) -> Tuple[Load, float, Dict, List[float]]:
    """Drive one service in ``SEGMENTS`` stretches.

    Before the first stretch and after each one, with every reply in and
    the service idle, this process takes a host-speed probe.  Returns
    (load, wall time of the stretches, service report, probes).
    """
    load = Load(seed)
    probes = [calib.probe()]
    wall = 0.0
    segments = SEGMENTS if stop_position is None else 1
    for __ in range(segments):
        wall += drive(service.port, load, seconds / segments, stop_position)
        probes.append(calib.probe())
    report = service.stop()
    return load, wall, report, probes


def _check(load: Load, report: Dict[str, object],
           pinned: Optional[List[str]]) -> Tuple[List[str], int, str]:
    """(problems, failed requests, note) of one load phase."""
    problems = []
    bad = {status: count for status, count in load.statuses.items()
           if status not in ("accepted", "rejected", "released",
                             "not_found", "ok")}
    failed = sum(bad.values()) + load.dropped
    if failed:
        problems.append(f"{failed} failed requests: {bad}, "
                        f"{load.dropped} dropped")
    divergence = report["counters"].get("service.reconcile.divergence", 0)
    if divergence:
        problems.append(f"reconcile divergence {divergence}")
    if report.get("unrestored"):
        problems.append("the service left a wrapped attribute in place")
    digests = load.block_digests()
    if pinned is None:
        return problems, failed, f"{len(digests)} blocks, seed not pinned"
    checked = min(len(digests), len(pinned))
    for index in range(checked):
        if digests[index] != pinned[index]:
            problems.append(f"verdict block {index} digest "
                            f"{digests[index]} != pinned {pinned[index]}")
            failed += BLOCK
    return problems, failed, f"{checked} of {len(digests)} blocks pinned"


def prepare(workload: str, seed: int) -> None:
    """The load side needs no program imports; the service child does."""


def phase(workload: str, seed: int, __, index: int, seconds: float,
          trace: bool) -> Dict[str, object]:
    """One service process under load; raw samples for :func:`combine`."""
    pinned = load_pins().get(workload, {}).get(str(seed))
    services: List[ServiceProcess] = []
    checked = []
    samples: Dict[str, object] = {}
    # The load and the service share one vCPU (the service inherits this
    # process's affinity): the loop is then bound by that vCPU's speed,
    # which the probes measure, and not by how fast a busy host wakes
    # an idle second vCPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        setup_probe = calib.start_probe()
        if trace:
            # An untraced service first, then a traced one, from this
            # process; the ratio of their throughputs is the overhead.
            services.append(ServiceProcess(index))
            base, base_wall, base_report, __ = _phase(services[0], seed,
                                                      seconds * 0.25)
            checked.append((base, base_report))
            services.append(ServiceProcess(index, trace=True))
        else:
            services.append(ServiceProcess(index))
        load, wall, report, probes = _phase(
            services[-1], seed, seconds * (0.75 if trace else 1.0))
        checked.append((load, report))
    finally:
        for service in services:
            service.kill()
    problems, failed, notes = [], 0, []
    for each_load, each_report in checked:
        found, count, note = _check(each_load, each_report, pinned)
        problems += found
        failed += count
        notes.append(note)
    if trace:
        samples["overhead"] = ((base.completed / base_wall)
                               / (load.completed / wall))
        samples["totals"] = report["totals"]
    samples.update(
        problems=problems, failed=failed, blocks="; ".join(notes),
        attempted=sum(each.completed + each.dropped for each, __ in checked),
        setup_s=services[0].setup_s, setup_probe=setup_probe,
        completed=load.completed, wall=wall, probes=probes,
        admit_ms=load.admit_ms, stats_ms=load.stats_ms,
        accepted=load.statuses.get("accepted", 0),
        counters=report["counters"], server_cpu_s=report["cpu_s"],
        server_wall_s=report["wall_s"], peak_rss_mb=report["peak_rss_mb"])
    return samples


def combine(workload: str, seed: int, phases: List[Dict[str, object]],
            trace: bool) -> Outcome:
    outcome = Outcome()
    for samples in phases:
        outcome.problems += samples["problems"]
        outcome.failed += samples["failed"]
        outcome.attempted += samples["attempted"]
    scale = run_scale(phases)
    per_service = [[value * scale for value in samples["admit_ms"]]
                   for samples in phases]
    admit_ms = [value for each in per_service for value in each]
    stats_ms = [value * scale for samples in phases
                for value in samples["stats_ms"]]
    completed = sum(samples["completed"] for samples in phases)
    raw_rps = [samples["completed"] / samples["wall"] for samples in phases]
    rps = completed / sum(samples["wall"] for samples in phases) / scale

    def total(counter: str) -> int:
        return sum(samples["counters"].get(counter, 0) for samples in phases)

    batches = total("service.batches")
    mean_batch = total("service.batch.requests") / max(batches, 1)
    # Percentiles per service process, then their median over
    # processes: one slow process moves a pooled percentile.
    q = min(tail(each)[0] for each in per_service)
    admit_p50 = statistics.median(statistics.median(each)
                                  for each in per_service)
    admit_tail = statistics.median(nearest_rank(each, q)
                                   for each in per_service)
    outcome.notes.append(
        f"{workload}: {completed} requests in {len(phases)} service "
        f"processes, {rps:.1f} rps (unscaled "
        + "/".join(f"{each:.0f}" for each in raw_rps)
        + f"; host-speed factor {scale:.3f}); admit p50 {admit_p50:.3f} "
        f"ms, p{q:g} {admit_tail:.3f} ms (medians over processes of n="
        + "/".join(str(len(each)) for each in per_service)
        + f"); stats p50 {statistics.median(stats_ms):.3f} "
        f"ms (n={len(stats_ms)}); accepted "
        f"{sum(samples['accepted'] for samples in phases)} of "
        f"{len(admit_ms)}; mean batch {mean_batch:.2f}; verdicts: "
        + " | ".join(samples["blocks"] for samples in phases))
    if trace:
        per = 1.0 / max(completed, 1)
        summary = merge_totals([samples["totals"] for samples in phases],
                               completed, {
            "bench.trace_overhead": statistics.median(
                samples["overhead"] for samples in phases),
            "service.server.batches": batches * per,
            "service.server.mean_batch_size": mean_batch,
            "service.server.overload": total("service.overload") * per,
            "service.server.busy_frac":
                sum(samples["server_cpu_s"] for samples in phases)
                / sum(samples["server_wall_s"] for samples in phases),
        })
        finish_trace(outcome, summary, workload, seed,
                     sum(samples["totals"]["spans"] for samples in phases))
    outcome.e2e.update({
        "setup_s": scaled_setup_s(phases),
        "peak_rss_mb": max(samples["peak_rss_mb"] for samples in phases),
        "work_per_s": rps,
        "op_p50_ms": admit_p50,
        "op_tail_ms": admit_tail,
    })
    return outcome


def pin_digests(seed: int, blocks: int) -> List[str]:
    """Verdict digests of the first ``blocks`` blocks at ``seed``."""
    service = ServiceProcess()
    try:
        load, __, report, __ = _phase(service, seed, 0.0,
                                  stop_position=blocks * BLOCK)
    finally:
        service.kill()
    if report["counters"].get("service.reconcile.divergence", 0):
        raise RuntimeError("reconcile divergence while pinning")
    digests = load.block_digests()
    if len(digests) < blocks:
        raise RuntimeError(f"only {len(digests)} complete blocks")
    return digests[:blocks]


# ----------------------------------------------------------------------
# Service side (child process)
# ----------------------------------------------------------------------

def child(phase: int, trace: bool) -> int:
    """Serve until SIGTERM, then print one ``RESULT`` line."""
    sys.path.insert(0, SRC)
    from repro.service.config import load_service_setup
    from repro.service.server import AdmissionService

    setup = load_service_setup("bbw")
    tracer = patcher = before = targets = None
    if trace:
        targets = service_targets()
        before = snapshot(targets)
        tracer = Tracer()
        patcher = Patcher(tracer)
        patcher.install(targets)

    async def serve() -> Tuple[AdmissionService, float, float]:
        service = AdmissionService(setup)
        __, port = await service.start(port=0)
        service.install_signal_handlers()
        print(f"PORT {port}", flush=True)
        wall = time.perf_counter()
        cpu = time.process_time()
        await service.wait_closed()
        return (service, time.process_time() - cpu,
                time.perf_counter() - wall)

    try:
        service, cpu_s, wall_s = asyncio.run(serve())
    finally:
        if patcher is not None:
            patcher.restore()
    report: Dict[str, object] = {
        "counters": dict(sorted(service.counters.items())),
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        report["unrestored"] = snapshot(targets) != before
        report["totals"] = phase_totals(tracer)
        write_spans(tracer, "serve-mixed", phase)
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    if "--child" in sys.argv:
        sys.exit(child(int(sys.argv[sys.argv.index("--child") + 1]),
                       "--trace" in sys.argv))
