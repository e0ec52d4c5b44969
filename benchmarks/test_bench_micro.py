"""Microbenchmarks: throughput of the hot paths.

Not a paper figure -- these measure the simulator itself so regressions
in the engine's per-cycle cost are visible (the figure benchmarks run
thousands of cycles; their wall-clock tracks these numbers).

``REPRO_ENGINE_MODE`` selects the cluster engine for the cycle
benchmarks (``vectorized`` default / ``interpreter`` oracle), letting the
CI ``engine-bench`` job compare the two on identical workloads.
"""

import os

import pytest

from repro.core.retransmission import plan_retransmissions
from repro.core.slack_stealing import SlackStealer
from repro.core.tasks import AperiodicTask, PeriodicTask, TaskSet
from repro.experiments.figures import (
    dynamic_study_aperiodic,
    dynamic_study_periodic,
)
from repro.experiments.runner import run_experiment
from repro.flexray.params import paper_dynamic_preset
from repro.obs import NULL_OBS, Observability
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.sim.rng import RngStream

_DISPATCH_EVENTS = 20_000

ENGINE_MODE = os.environ.get("REPRO_ENGINE_MODE", "vectorized")


def _dispatch_events(obs):
    """Drain a pre-filled event queue through the kernel dispatch loop."""
    engine = SimulationEngine(obs=obs)
    engine.register(EventKind.CUSTOM, lambda eng, ev: None)
    for t in range(_DISPATCH_EVENTS):
        engine.schedule(t, EventKind.CUSTOM)
    engine.run_to_completion()
    return engine.processed_events


def test_micro_engine_dispatch_hooks_disabled(benchmark):
    """Kernel dispatch throughput with observability off (NULL_OBS).

    This is the acceptance baseline for the observability layer: the
    instrumented kernel with the shared no-op context must stay within
    a few percent of the pre-instrumentation dispatch rate (the hot
    path pays one cached boolean check per event).
    """
    processed = benchmark(_dispatch_events, NULL_OBS)
    assert processed == _DISPATCH_EVENTS


def test_micro_engine_dispatch_hooks_enabled(benchmark):
    """Kernel dispatch throughput with a live observability context.

    Compare against the disabled benchmark above to see the cost of
    full instrumentation (counters + per-kind timers + queue gauge).
    """
    obs = Observability()
    processed = benchmark(_dispatch_events, obs)
    assert processed == _DISPATCH_EVENTS
    assert (obs.registry.counter_value("engine.events_dispatched")
            >= _DISPATCH_EVENTS)


def test_micro_cluster_cycles_per_second(benchmark):
    """Simulated cycles per wall-clock second, CoEfficient, full load."""
    def run():
        return run_experiment(
            params=paper_dynamic_preset(50),
            scheduler="coefficient",
            periodic=dynamic_study_periodic(),
            aperiodic=dynamic_study_aperiodic(),
            ber=1e-7, seed=1, duration_ms=200.0,
            reliability_goal=1 - 1e-4,
            engine_mode=ENGINE_MODE,
        ).cycles_run

    cycles = benchmark(run)
    assert cycles > 0


def test_micro_retransmission_planning(benchmark):
    """Planner cost for a 200-message set."""
    rng = RngStream(5, "micro-plan")
    failure = {f"m{i}": rng.uniform(1e-7, 1e-3) for i in range(200)}
    instances = {m: rng.uniform(10.0, 500.0) for m in failure}

    plan = benchmark(plan_retransmissions, failure, instances, 1 - 1e-6)
    assert plan.feasible


def test_micro_slack_stealer_run(benchmark):
    """Unit-time slack stealer over its full horizon."""
    tasks = TaskSet.deadline_monotonic([
        PeriodicTask(name=f"t{i}", execution=1 + i % 2, period=p,
                     deadline=p)
        for i, p in enumerate((8, 12, 16, 24))
    ])
    aperiodics = [
        AperiodicTask(name=f"j{i}", arrival=i * 7, execution=2)
        for i in range(10)
    ]

    def run():
        return SlackStealer(tasks).run(aperiodics, until=96)

    outcome = benchmark(run)
    assert outcome.deadline_misses == []


def test_micro_fault_injection(benchmark):
    """Per-transmission fault-oracle cost."""
    from repro.faults.ber import BitErrorRateModel
    from repro.faults.injector import TransientFaultInjector
    from repro.flexray.channel import Channel

    injector = TransientFaultInjector(
        BitErrorRateModel(ber_channel_a=1e-7), RngStream(1, "micro-faults"))

    def run():
        hits = 0
        for t in range(10_000):
            if injector(Channel.A, 500, t):
                hits += 1
        return hits

    benchmark(run)
