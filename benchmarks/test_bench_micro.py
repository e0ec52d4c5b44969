"""Microbenchmarks: throughput of the hot paths.

Not a paper figure -- these measure the simulator itself so regressions
in the engine's per-cycle cost are visible (the figure benchmarks run
thousands of cycles; their wall-clock tracks these numbers).

``REPRO_ENGINE_MODE`` selects the cluster engine for the cycle
benchmarks (``vectorized`` default / ``interpreter`` oracle), letting the
CI ``engine-bench`` job compare the two on identical workloads.
"""

import collections
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
from repro.obs.observability import NULL_OBS, NullObservability, Observability
from repro.sim.rng import RngStream

from benchmarks.bench_engine import scenarios as engine_scenarios

ENGINE_MODE = os.environ.get("REPRO_ENGINE_MODE", "vectorized")


#: Obs calls a simulated cycle may make under a disabled context.  A
#: per-frame hook would cost at least one call per trace record: ~24 per
#: cycle on bbw-completion, ~40 on dense-trace.
_MAX_DISABLED_OBS_CALLS_PER_CYCLE = 1


class _CountingNullObs(NullObservability):
    """``NULL_OBS`` that counts every call except the ``enabled`` read."""

    def __init__(self):
        self.calls = collections.Counter()


def _counted(name):
    disabled = getattr(NullObservability, name)

    def method(self, *args, **kwargs):
        self.calls[name] += 1
        return disabled(self, *args, **kwargs)
    return method


for _name, _value in vars(NullObservability).items():
    if callable(_value) and not _name.startswith("_"):
        setattr(_CountingNullObs, _name, _counted(_name))


@pytest.mark.parametrize("scenario", ("bbw-completion", "dense-trace"))
def test_micro_disabled_obs_calls_per_cycle(scenario):
    """"Zero cost when disabled", on the engine path that runs.

    Deterministic: with observability off, the engine-bbw and
    engine-dense scenarios (``bench_engine.py``'s bbw-completion and
    dense-trace) make a bounded number of obs calls per simulated
    cycle, however many trace records the cycle produces -- a hook
    added per frame without an ``obs.enabled`` guard fails here.
    """
    obs = _CountingNullObs()
    result = run_experiment(obs=obs, engine_mode=ENGINE_MODE,
                            **engine_scenarios()[scenario])
    cycles = result.cycles_run
    records_per_cycle = len(result.cluster.trace) / cycles
    assert records_per_cycle > _MAX_DISABLED_OBS_CALLS_PER_CYCLE
    calls = sum(obs.calls.values())
    assert calls <= _MAX_DISABLED_OBS_CALLS_PER_CYCLE * cycles, obs.calls


def _cluster_cycles(obs):
    """The CoEfficient dynamic-study cluster, 200 ms simulated."""
    return run_experiment(
        params=paper_dynamic_preset(50),
        scheduler="coefficient",
        periodic=dynamic_study_periodic(),
        aperiodic=dynamic_study_aperiodic(),
        ber=1e-7, seed=1, duration_ms=200.0,
        reliability_goal=1 - 1e-4,
        engine_mode=ENGINE_MODE,
        obs=obs,
    ).cycles_run


def test_micro_cluster_cycles_per_second(benchmark):
    """Simulated cycles per wall-clock second, CoEfficient, full load.

    Observability is off (``NULL_OBS``): the disabled half of a timed
    pair whose enabled twin follows.  The disabled run pays one
    ``obs.enabled`` read per guarded hook and nothing else.
    """
    assert benchmark(_cluster_cycles, NULL_OBS) > 0


def test_micro_cluster_cycles_obs_enabled(benchmark):
    """The same cluster cycles with a live ``Observability()``."""
    assert benchmark(lambda: _cluster_cycles(Observability())) > 0


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
    from repro.protocol.channel import Channel

    injector = TransientFaultInjector(
        BitErrorRateModel(ber_channel_a=1e-7), RngStream(1, "micro-faults"))

    def run():
        hits = 0
        for t in range(10_000):
            if injector(Channel.A, 500, t):
                hits += 1
        return hits

    benchmark(run)
