"""The simulated cluster: channels + segment engines + policy.

This is the top of the protocol substrate.  A cluster is assembled from:

- a validated :class:`~repro.protocol.geometry.SegmentGeometry`;
- an :class:`~repro.protocol.arrivals.ArrivalMultiplexer` of message
  sources (the hosts);
- a :class:`~repro.protocol.policy.SchedulerPolicy` (the system under
  test: CoEfficient or a baseline);
- a fault oracle (``(channel, bits, time) -> bool``), normally a
  :class:`repro.faults.injector.TransientFaultInjector`.

Running the cluster advances communication cycles; each cycle executes
the static segment (TDMA) then the dynamic segment (FTDMA), delivering
host arrivals to the policy in exact time order between slots.  All
nodes share one global macrotick timebase: the paper's figures
depend only on slot/minislot timing and the fault process, so per-node
clocks, controller state and the interconnect shape are not modelled.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.protocol.arrivals import ArrivalMultiplexer, MessageSource
from repro.protocol.channel import Channel, ChannelSet
from repro.protocol.contracts import FaultOracle
from repro.protocol.cycle import CycleLayout
from repro.protocol.dynamic_segment import DynamicSegmentEngine
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.policy import SchedulerPolicy
from repro.protocol.static_segment import StaticSegmentEngine
from repro.obs import NULL_OBS, ObsLike
from repro.sim.engine import EngineMode
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.trace import TraceRecorder
from repro.timeline.vectorized import VectorizedStepper

__all__ = ["Cluster"]

#: Cycles ``run_until_complete`` allows with no progress before it
#: declares a stall.
_SETTLE_CYCLES = 8


def _never_corrupts(channel: Channel, bits: int, time_mt: int) -> bool:
    """Default fault oracle: a perfect medium."""
    return False


class Cluster:
    """A runnable time-triggered cluster simulation.

    Args:
        params: Cluster configuration.
        policy: Scheduling policy under test.
        sources: Host message sources.
        corrupts: Fault oracle; defaults to a fault-free medium.
        obs: Observability context; when enabled, the cluster records
            ``engine.*`` counters and per-segment profiler sections.
        mode: :class:`~repro.sim.engine.EngineMode` (or its string
            value).  ``VECTORIZED`` (the default) settles each segment
            of the policy's compiled round as one phase-split batch
            (all queries, then batched fault draws, one trace append
            and the outcome replay) whenever the policy's decisions are
            provably outcome-free, and otherwise delegates the segment
            to the per-slot :class:`~repro.timeline.stepper.TimelineStepper`;
            a policy without a compiled round runs on the interpreter.
            ``INTERPRETER`` is the per-slot oracle.  Both modes
            produce byte-identical traces
            (``tests/sim/test_trace_equivalence.py``,
            ``tests/sim/test_engine_fuzz.py``).
    """

    def __init__(
        self,
        params: SegmentGeometry,
        policy: SchedulerPolicy,
        sources: Sequence[MessageSource],
        corrupts: Optional[FaultOracle] = None,
        obs: ObsLike = NULL_OBS,
        mode: Union[str, EngineMode] = EngineMode.VECTORIZED,
    ) -> None:
        self.params = params
        self.policy = policy
        self._obs = obs
        self._observed = obs.enabled
        self.layout = CycleLayout(params)
        self.channels = ChannelSet(params.channel_count)
        self.trace = TraceRecorder(protocol=type(params).protocol)
        self._corrupts: FaultOracle = corrupts or _never_corrupts
        self._multiplexer = ArrivalMultiplexer(sources)

        self._static_engine = StaticSegmentEngine(
            params, self.layout, self.channels, policy,
            self._corrupts, self.trace,
        )
        self._dynamic_engine = DynamicSegmentEngine(
            params, self.layout, self.channels, policy,
            self._corrupts, self.trace,
        )
        self._mode = EngineMode.parse(mode)
        self._stepper: Optional[VectorizedStepper] = None
        self._cycle = 0
        self._bound = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """Next communication cycle to execute (0-based)."""
        return self._cycle

    @property
    def now_mt(self) -> int:
        """Start time of the next cycle (the cluster's logical clock)."""
        return self.layout.cycle_start(self._cycle)

    @property
    def mode(self) -> EngineMode:
        """The configured engine mode."""
        return self._mode

    @property
    def vectorized_active(self) -> bool:
        """Whether the phase-split batch engine is engaged."""
        return self._stepper is not None

    def _ensure_bound(self) -> None:
        if not self._bound:
            self.policy.bind(self)
            if self._mode is EngineMode.VECTORIZED:
                compiled = self.policy.compiled_round()
                if compiled is not None:
                    self._stepper = VectorizedStepper(
                        compiled=compiled,
                        params=self.params,
                        layout=self.layout,
                        channels=self.channels,
                        policy=self.policy,
                        static_engine=self._static_engine,
                        dynamic_engine=self._dynamic_engine,
                        next_release_mt=self._multiplexer.next_release_mt,
                        corrupts=self._corrupts,
                        trace=self.trace,
                        obs=self._obs,
                    )
            self._bound = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_cycles(self, count: int) -> None:
        """Execute ``count`` communication cycles.

        Args:
            count: Number of cycles (> 0).
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._ensure_bound()
        for __ in range(count):
            self._execute_one_cycle()

    def run_for_ms(self, milliseconds: float) -> int:
        """Execute whole cycles spanning at least ``milliseconds``.

        Returns:
            The number of cycles executed.
        """
        if milliseconds <= 0:
            raise ValueError(f"milliseconds must be positive, got {milliseconds}")
        horizon_mt = self.params.ms_to_mt(milliseconds)
        cycles = max(1, -(-horizon_mt // self.params.gd_cycle_mt))
        self.run_cycles(cycles)
        return cycles

    def run_until_complete(self, max_cycles: int = 200_000) -> int:
        """Run until the whole transmission workload completes (or stalls).

        Used by the running-time experiments: sources are instance-
        limited and the run continues until every produced instance has
        been delivered *and* the policy has drained its planned work
        (redundancy copies included) -- the paper's "completes the
        message transmission" includes the transmissions its reliability
        scheme requires, not just first deliveries.

        A run that makes no progress (neither deliveries nor pending-
        work reduction) for more than ``_SETTLE_CYCLES`` cycles is
        declared stalled and stops.

        Args:
            max_cycles: Hard cap on executed cycles.

        Returns:
            The number of cycles executed.
        """
        self._ensure_bound()
        executed = 0
        stagnant = 0
        last_progress = (-1, -1)
        while executed < max_cycles:
            if self._multiplexer.exhausted:
                produced = self.trace.instance_count()
                delivered = self.trace.delivered_count()
                pending = self.policy.pending_work()
                if produced and delivered >= produced and pending == 0:
                    break
                progress = (delivered, pending)
                if progress == last_progress:
                    stagnant += 1
                    if stagnant > _SETTLE_CYCLES:
                        break
                else:
                    stagnant = 0
                last_progress = progress
            self._execute_one_cycle()
            executed += 1
        return executed

    def _execute_one_cycle(self) -> None:
        """Run one full communication cycle (static + dynamic segments)."""
        cycle = self._cycle
        start_mt = self.layout.cycle_start(cycle)
        if self._observed:
            self._execute_one_cycle_observed(cycle, start_mt)
        elif self._stepper is not None:
            self._deliver_arrivals_until(start_mt)
            self.policy.on_cycle_start(cycle, start_mt)
            self._stepper.run_static_segment(
                cycle, self._deliver_arrivals_until)
            self._stepper.run_dynamic_segment(
                cycle, self._deliver_arrivals_until)
        else:
            self._deliver_arrivals_until(start_mt)
            self.policy.on_cycle_start(cycle, start_mt)
            self._static_engine.execute_cycle(
                cycle, self._deliver_arrivals_until)
            self._dynamic_engine.execute_cycle(
                cycle, self._deliver_arrivals_until)
        # Arrivals landing in the symbol window / NIT wait for the next
        # cycle's delivery pass by construction.
        self._cycle = cycle + 1

    def _execute_one_cycle_observed(self, cycle: int, start_mt: int) -> None:
        """The same cycle walk, with per-segment timing and counters."""
        obs = self._obs
        with obs.section("cluster.arrivals"):
            self._deliver_arrivals_until(start_mt)
        self.policy.on_cycle_start(cycle, start_mt)
        if self._stepper is not None:
            with obs.section("cluster.static_segment"):
                static_fast = self._stepper.run_static_segment(
                    cycle, self._deliver_arrivals_until)
            with obs.section("cluster.dynamic_segment"):
                dynamic_fast = self._stepper.run_dynamic_segment(
                    cycle, self._deliver_arrivals_until)
            if static_fast and dynamic_fast:
                obs.inc("engine.fast_path_cycles")
        else:
            with obs.section("cluster.static_segment"):
                self._static_engine.execute_cycle(
                    cycle, self._deliver_arrivals_until)
            with obs.section("cluster.dynamic_segment"):
                self._dynamic_engine.execute_cycle(
                    cycle, self._deliver_arrivals_until)
            obs.inc(
                "engine.heap_events",
                self.params.g_number_of_static_slots * len(self.channels)
                + len(self._dynamic_engine.last_cycle_results),
            )
        obs.inc("engine.cycles")
        obs.set_gauge("engine.trace_records", len(self.trace))
        obs.emit("engine.cycle", cycle=cycle, start_mt=start_mt,
                 pending_work=self.policy.pending_work())

    def _deliver_arrivals_until(self, time_mt: int) -> None:
        """Flush host releases with generation time <= ``time_mt``.

        The segment engines call this before every slot, and most calls
        find nothing due: those return after one peek at the release
        heap.  A call that finds releases due is one delivery pass: one
        call notes them in the trace, and one ``on_arrival`` call hands
        the policy their chunk instances, in release order.
        """
        multiplexer = self._multiplexer
        next_mt = multiplexer.next_release_mt()
        if next_mt is None or next_mt > time_mt:
            return
        releases = multiplexer.pop_until(time_mt)
        if self._observed:
            self._obs.inc("engine.arrivals_delivered", len(releases))
        self.trace.note_releases(releases)
        self.policy.on_arrival([pending for release in releases
                                for pending in release.pendings])

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def metrics(self, horizon_mt: Optional[int] = None) -> SimulationMetrics:
        """Reduce the trace to the paper's metric set.

        Args:
            horizon_mt: Measurement window; defaults to the time span the
                cluster actually executed.
        """
        if horizon_mt is None:
            horizon_mt = max(1, self.now_mt)
        collector = MetricsCollector(
            macrotick_us=self.params.gd_macrotick_us,
            channel_count=self.params.channel_count,
            obs=self._obs,
        )
        self.policy.on_horizon_end(self.now_mt)
        return collector.compute(self.trace, horizon_mt)
