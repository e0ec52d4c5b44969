"""One-call experiment runner.

Wires a workload, a scheduler policy, a fault environment and a cluster
configuration together, runs the simulation, and reduces the trace to
the paper's metric set.  Both the benchmark harness and the examples go
through this module, so every number reported anywhere is produced by
the same code path.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Union

from repro.baselines.dynamic_priority import DynamicPriorityPolicy
from repro.baselines.fspec import FspecPolicy
from repro.baselines.static_only import StaticOnlyPolicy
from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.faults.injector import TransientFaultInjector
from repro.protocol.backend import get_backend
from repro.protocol.cluster import Cluster
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.policy import SchedulerPolicy
from repro.protocol.signal import SignalSet
from repro.obs.observability import NULL_OBS
from repro.packing.frame_packing import PackingResult, pack_signals
from repro.sim.engine import EngineMode
from repro.sim.metrics import SimulationMetrics
from repro.sim.rng import RngStream
from repro.workloads.bundled import bundled_periodic
from repro.workloads.sae import sae_aperiodic_signals

__all__ = ["SCHEDULERS", "ExperimentResult", "build_experiment_kwargs",
           "make_policy", "run_experiment"]

#: Scheduler registry: name -> constructor signature handled by
#: :func:`make_policy`.
SCHEDULERS = ("coefficient", "fspec", "static-only", "dynamic-priority")

#: Default reliability goal: 99.999 % of instances delivered per time
#: unit -- between SIL2 and SIL3 for a 1-second unit, the regime the
#: paper's BER settings exercise.
DEFAULT_RHO = 0.99999
DEFAULT_TIME_UNIT_MS = 1000.0


@dataclass
class ExperimentResult:
    """Everything one experiment run produced.

    Attributes:
        scheduler: Scheduler name.
        metrics: The paper's metric set.
        counters: Policy-internal counters (steals, retransmissions...).
        cycles_run: Communication cycles executed.
        params: The cluster configuration used.
        cluster: The cluster itself (for deep inspection in tests).
        engine_mode: Which engine produced the run (``"vectorized"`` or
            ``"interpreter"``); the result store keys trace digests by
            it.
    """

    scheduler: str
    metrics: SimulationMetrics
    counters: Dict[str, int]
    cycles_run: int
    params: SegmentGeometry
    cluster: Cluster
    engine_mode: str = "vectorized"

    @property
    def completion_ms(self) -> float:
        """Simulated time the run actually spanned (cycles x cycle length).

        In completion mode this is the paper's "running time": the
        workload -- including every transmission the reliability scheme
        planned -- finished within this many simulated milliseconds.
        """
        return self.cycles_run * self.params.cycle_ms

    def row(self) -> Dict[str, float]:
        """Flat summary row for table printing."""
        row = {"scheduler": self.scheduler}
        row.update(self.metrics.summary_row())
        return row


def make_policy(
    scheduler: str,
    packing: PackingResult,
    ber_model: BitErrorRateModel,
    reliability_goal: float = DEFAULT_RHO,
    time_unit_ms: float = DEFAULT_TIME_UNIT_MS,
    **policy_kwargs,
) -> SchedulerPolicy:
    """Construct a scheduler policy by registry name.

    Args:
        scheduler: One of :data:`SCHEDULERS`.
        packing: The packed workload.
        ber_model: Fault environment (used by CoEfficient's planning).
        reliability_goal: rho for CoEfficient.
        time_unit_ms: Theorem-1 time unit for CoEfficient.
        **policy_kwargs: Forwarded to the policy constructor (e.g.
            ``selective=False`` for the ablation).
    """
    if scheduler == "coefficient":
        return CoEfficientPolicy(
            packing, ber_model,
            reliability_goal=reliability_goal,
            time_unit_ms=time_unit_ms,
            **policy_kwargs,
        )
    if scheduler == "fspec":
        return FspecPolicy(packing, **policy_kwargs)
    if scheduler == "static-only":
        return StaticOnlyPolicy(packing, **policy_kwargs)
    if scheduler == "dynamic-priority":
        return DynamicPriorityPolicy(packing, **policy_kwargs)
    raise ValueError(
        f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}"
    )


def build_experiment_kwargs(
    workload: str,
    count: int,
    seed: int,
    aperiodic: int,
    minislots: Optional[int],
    ber: float,
    reliability_goal: float,
    duration_ms: float = 200.0,
    engine_mode: str = EngineMode.VECTORIZED.value,
    backend: str = "flexray",
) -> Dict[str, object]:
    """The :func:`run_experiment` kwargs of one bundled-workload scenario.

    The one place the CLI's scalars become a configuration: ``repro
    run``, both ``repro campaign`` paths (the coordinated one through
    :meth:`repro.distrib.plan.CampaignPlan.experiment_kwargs`), ``repro
    plan`` and ``repro check`` build here, so a coordinated campaign
    reduces to exactly the serial one's configuration.  ``count`` and
    ``seed`` shape the synthetic set, ``aperiodic`` is the SAE message
    count (0 = none) and ``minislots=None`` takes the workload's
    default (:func:`repro.protocol.backend.workload_minislots`).
    """
    return dict(
        params=get_backend(backend).workload_params(workload, minislots),
        periodic=bundled_periodic(workload, count, seed),
        aperiodic=(sae_aperiodic_signals(count=aperiodic)
                   if aperiodic > 0 else None),
        ber=ber,
        duration_ms=duration_ms,
        reliability_goal=reliability_goal,
        engine_mode=engine_mode,
    )


def run_experiment(
    params: SegmentGeometry,
    scheduler: str,
    periodic: Optional[SignalSet] = None,
    aperiodic: Optional[SignalSet] = None,
    ber: float = 1e-7,
    seed: int = 42,
    duration_ms: Optional[float] = 200.0,
    instance_limit: Optional[int] = None,
    reliability_goal: float = DEFAULT_RHO,
    time_unit_ms: float = DEFAULT_TIME_UNIT_MS,
    max_cycles: int = 200_000,
    obs=NULL_OBS,
    engine_mode: Union[str, EngineMode] = EngineMode.VECTORIZED,
    **policy_kwargs,
) -> ExperimentResult:
    """Run one workload under one scheduler and return its metrics.

    Two modes, matching the paper's two measurement styles:

    - ``duration_ms`` set (default): run a fixed horizon and report
      utilization / latency / miss ratio over it (Figures 3-5);
    - ``instance_limit`` set (with ``duration_ms=None``): every message
      releases exactly that many instances and the run continues until
      all are delivered -- the *running time* experiments (Figures 1-2).

    Args:
        params: Cluster configuration.
        scheduler: Registry name from :data:`SCHEDULERS`.
        periodic: Time-triggered workload (may be ``None``).
        aperiodic: Event-triggered workload (may be ``None``).
        ber: Bit error rate on both channels.
        seed: Root seed for workload jitter and fault injection.
        duration_ms: Fixed horizon, or ``None`` for completion mode.
        instance_limit: Per-message instance cap (completion mode).
        reliability_goal: rho for CoEfficient.
        time_unit_ms: Theorem-1 time unit.
        max_cycles: Safety cap in completion mode.
        obs: Observability context threaded through the policy, the
            cluster and the metric reduction; policy counters and
            slack-planner statistics are merged into its registry when
            the run ends, and the cycle collector's pauses during the
            run are charged to its ``engine.gc.gen<N>`` profile sections.
        engine_mode: ``"vectorized"`` (default, the cycle-batch engine
            over the compiled round) or ``"interpreter"`` (the pure
            per-slot oracle); the two are trace-equivalent by
            construction and by differential test.
        **policy_kwargs: Forwarded to the policy constructor.

    Returns:
        An :class:`ExperimentResult`.
    """
    if duration_ms is None and instance_limit is None:
        raise ValueError("set duration_ms or instance_limit")
    workload = _merge(periodic, aperiodic)
    timing = _charge_gc(obs) if obs.enabled else contextlib.nullcontext()
    with timing:
        with obs.section("experiment.setup"):
            packing = pack_signals(workload, params)
            rng = RngStream(seed, scope="experiment")
            ber_model = BitErrorRateModel(ber_channel_a=ber)
            injector = TransientFaultInjector(ber_model, rng)
            policy = make_policy(
                scheduler, packing, ber_model,
                reliability_goal=reliability_goal,
                time_unit_ms=time_unit_ms,
                **policy_kwargs,
            )
            policy.attach_observability(obs)
            sources = packing.build_sources(rng, instance_limit=instance_limit)
            cluster = Cluster(
                params=params,
                policy=policy,
                sources=sources,
                corrupts=injector,
                obs=obs,
                mode=engine_mode,
            )
        with obs.section("experiment.run"):
            if duration_ms is not None:
                cycles = cluster.run_for_ms(duration_ms)
            else:
                cycles = cluster.run_until_complete(max_cycles=max_cycles)
        metrics = cluster.metrics()
        counters = dict(getattr(policy, "counters", {}))
        if obs.enabled:
            _export_run_observability(obs, scheduler, policy, counters, cycles,
                                      seed)
    return ExperimentResult(
        scheduler=scheduler,
        metrics=metrics,
        counters=counters,
        cycles_run=cycles,
        params=params,
        cluster=cluster,
        engine_mode=EngineMode.parse(engine_mode).value,
    )


@contextlib.contextmanager
def _charge_gc(obs) -> Iterator[None]:
    """Time every cycle-collector pass in the block, per generation.

    The collector pauses whatever allocates when a threshold trips, so
    no layer section sees its time; while the block runs, each pass is
    recorded as one call of the ``engine.gc.gen<N>`` profile section.
    """
    started = [0]

    def hook(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            started[0] = obs.now_ns()
        else:
            obs.profiler.observe_ns(f"engine.gc.gen{info['generation']}",
                                    obs.now_ns() - started[0])

    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)


def _export_run_observability(obs, scheduler: str,
                              policy: SchedulerPolicy,
                              counters: Dict[str, int],
                              cycles: int, seed: int) -> None:
    """Merge end-of-run policy state into the observability registry."""
    obs.merge_counters("policy", counters)
    obs.set_gauge("engine.cycles_run", cycles)
    planner = getattr(policy, "_planner", None)
    if planner is not None:
        obs.merge_counters("slack.planner", planner.stats)
    obs.emit("experiment.finished", scheduler=scheduler, cycles=cycles,
             seed=seed)


def _merge(periodic: Optional[SignalSet],
           aperiodic: Optional[SignalSet]) -> SignalSet:
    """Combine the workload halves, tolerating either being absent."""
    if periodic is None and aperiodic is None:
        raise ValueError("experiment needs at least one workload")
    if periodic is None:
        return aperiodic  # type: ignore[return-value]
    if aperiodic is None:
        return periodic
    return periodic.merged_with(aperiodic)
