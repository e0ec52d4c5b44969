"""Ablation benchmarks: the design choices DESIGN.md calls out.

1. Selective vs exhaustive slack stealing -- disabling the selective
   admission check queues every planned copy regardless of available
   slack; the unplaceable backlog then evicts nothing (copies are
   EDF-queued) but wastes queue occupancy and dynamic-segment slots.
2. Differentiated vs uniform retransmission -- the uniform plan pays
   for every message equally.
3. Channel cooperation ladder -- CoEfficient's unified pool and slack
   stealing against the dynamic-priority baseline's per-ID dual-channel
   queues and FSPEC's single-channel separate scheduling.
4. Open-loop planned copies vs reactive feedback (extension) -- the
   feedback extension uses less bandwidth at equal delivered fraction
   on a lossy bus, quantifying what FlexRay's missing acknowledgements
   cost.
"""

import pytest

from benchmarks.conftest import print_rows
from repro.experiments.figures import (
    dynamic_study_aperiodic,
    dynamic_study_periodic,
)
from repro.experiments.runner import run_experiment
from repro.flexray.params import paper_dynamic_preset
from repro.protocol.signal import Signal, SignalSet


def _run(scheduler="coefficient", minislots=50, ber=1e-7,
         reliability_goal=1 - 1e-4, **kwargs):
    return run_experiment(
        params=paper_dynamic_preset(minislots),
        scheduler=scheduler,
        periodic=dynamic_study_periodic(),
        aperiodic=dynamic_study_aperiodic(),
        ber=ber, seed=42, duration_ms=600.0,
        reliability_goal=reliability_goal,
        **kwargs,
    )


def test_ablation_selective_slack(benchmark):
    """Selective admission cannot hurt delivery and avoids useless load.

    Run under genuine slack scarcity (25 minislots, the strict-goal
    budgets): with ample slack both variants behave identically and the
    ablation shows nothing.
    """
    def run_both():
        kwargs = dict(minislots=25, ber=1e-9,
                      reliability_goal=1 - 1e-12)
        selective = _run(selective=True, **kwargs)
        exhaustive = _run(selective=False, **kwargs)
        return selective, exhaustive

    selective, exhaustive = benchmark.pedantic(run_both, rounds=1,
                                               iterations=1)
    rows = [
        {"variant": "selective", "miss":
         selective.metrics.deadline_miss_ratio,
         "retx_enqueued": selective.counters["retx_enqueued"],
         "retx_abandoned": selective.counters["retx_abandoned"],
         "gross_util": selective.metrics.gross_utilization},
        {"variant": "exhaustive", "miss":
         exhaustive.metrics.deadline_miss_ratio,
         "retx_enqueued": exhaustive.counters["retx_enqueued"],
         "retx_abandoned": exhaustive.counters["retx_abandoned"],
         "gross_util": exhaustive.metrics.gross_utilization},
    ]
    print_rows("Ablation -- selective vs exhaustive slack stealing", rows,
               ("variant", "miss", "retx_enqueued", "retx_abandoned",
                "gross_util"))
    assert selective.metrics.deadline_miss_ratio <= \
        exhaustive.metrics.deadline_miss_ratio + 0.005
    # Exhaustive queues every copy; selective declines the unplaceable.
    assert selective.counters["retx_enqueued"] < \
        exhaustive.counters["retx_enqueued"]


def test_ablation_uniform_budget(benchmark):
    """The uniform plan transmits more redundancy for the same goal.

    Two levels: (a) planning -- on the heterogeneous BBW set the
    differentiated plan is strictly cheaper than the smallest uniform k
    meeting the same goal; (b) simulation -- CoEfficient run with
    ``uniform_budget=True`` never transmits *less* redundancy.
    """
    from repro.core.retransmission import (
        plan_retransmissions,
        uniform_retransmission_plan,
    )
    from repro.faults.ber import BitErrorRateModel
    from repro.workloads.bbw import bbw_signals

    def run_all():
        # (a) Planning-level comparison on BBW at BER 1e-6 over a minute.
        model = BitErrorRateModel(ber_channel_a=1e-6)
        failure, instances = {}, {}
        for signal in bbw_signals():
            failure[signal.name] = model.failure_probability(
                "A", signal.size_bits + 64)
            instances[signal.name] = 60_000.0 / signal.period_ms
        rho = 1 - 1e-9
        differentiated_plan = plan_retransmissions(failure, instances, rho)
        uniform_plan = uniform_retransmission_plan(failure, instances, rho)
        # (b) Simulation-level comparison.
        differentiated_run = _run(uniform_budget=False)
        uniform_run = _run(uniform_budget=True)
        return (differentiated_plan, uniform_plan,
                differentiated_run, uniform_run)

    (differentiated_plan, uniform_plan, differentiated_run,
     uniform_run) = benchmark.pedantic(run_all, rounds=1, iterations=1)

    diff_k = sum(differentiated_plan.budgets.values())
    uni_k = sum(uniform_plan.budgets.values())
    rows = [
        {"variant": "differentiated (BBW plan)", "total_k": diff_k,
         "retx_tx": differentiated_run.metrics.retransmission_attempts,
         "gross_util": differentiated_run.metrics.gross_utilization},
        {"variant": "uniform (BBW plan)", "total_k": uni_k,
         "retx_tx": uniform_run.metrics.retransmission_attempts,
         "gross_util": uniform_run.metrics.gross_utilization},
    ]
    print_rows("Ablation -- differentiated vs uniform retransmission",
               rows, ("variant", "total_k", "retx_tx", "gross_util"))
    assert differentiated_plan.feasible and uniform_plan.feasible
    assert diff_k < uni_k, (
        "differentiation saved nothing on the heterogeneous BBW set"
    )
    assert differentiated_run.metrics.retransmission_attempts <= \
        uniform_run.metrics.retransmission_attempts


def test_ablation_channel_cooperation(benchmark):
    """Unified pool + slack stealing beats separate per-ID scheduling.

    The dynamic-priority baseline shares CoEfficient's dual-channel
    dynamic service but keeps the spec's per-frame-ID queues (so short
    segments starve high IDs) and steals no static slack; FSPEC is
    single-channel on top.  Compared on *miss ratio* -- latency means are
    not comparable across schedulers that deliver different populations
    (a starved message that never delivers does not appear in the mean).
    """
    def run_three():
        return (_run("coefficient", minislots=25),
                _run("dynamic-priority", minislots=25),
                _run("fspec", minislots=25))

    coefficient, dynamic_priority, fspec = benchmark.pedantic(
        run_three, rounds=1, iterations=1)
    rows = [
        {"scheduler": r.scheduler,
         "dynamic_latency_ms": r.metrics.dynamic_latency.mean_ms,
         "miss": r.metrics.deadline_miss_ratio,
         "delivered": r.metrics.delivered_instances}
        for r in (coefficient, dynamic_priority, fspec)
    ]
    print_rows("Ablation -- channel cooperation ladder (25 minislots)",
               rows, ("scheduler", "dynamic_latency_ms", "miss",
                      "delivered"))
    assert coefficient.metrics.deadline_miss_ratio <= \
        dynamic_priority.metrics.deadline_miss_ratio
    assert coefficient.metrics.deadline_miss_ratio <= \
        fspec.metrics.deadline_miss_ratio
    assert coefficient.metrics.dynamic_latency.mean_ms <= \
        fspec.metrics.dynamic_latency.mean_ms


def test_ablation_feedback_extension(benchmark):
    """Reactive ARQ (extension) vs the paper's open-loop copies.

    On a lossy bus the feedback variant spends far less redundancy
    bandwidth for a comparable delivered fraction -- the quantified cost
    of FlexRay's missing acknowledgement path.
    """
    lossy = SignalSet([
        Signal(name=f"m{i}", ecu=i % 3, period_ms=2.0, offset_ms=0.1 * i,
               deadline_ms=2.0, size_bits=180)
        for i in range(6)
    ], name="lossy")

    def run_both():
        open_loop = run_experiment(
            params=paper_dynamic_preset(50), scheduler="coefficient",
            periodic=lossy, ber=2e-5, seed=3, duration_ms=1500.0,
            reliability_goal=0.999, time_unit_ms=100.0, feedback=False,
        )
        feedback = run_experiment(
            params=paper_dynamic_preset(50), scheduler="coefficient",
            periodic=lossy, ber=2e-5, seed=3, duration_ms=1500.0,
            reliability_goal=0.999, time_unit_ms=100.0, feedback=True,
        )
        return open_loop, feedback

    open_loop, feedback = benchmark.pedantic(run_both, rounds=1,
                                             iterations=1)

    def delivered_fraction(result):
        metrics = result.metrics
        return metrics.delivered_instances / metrics.produced_instances

    rows = [
        {"variant": "open-loop (paper)", "delivered":
         delivered_fraction(open_loop),
         "retx_tx": open_loop.metrics.retransmission_attempts,
         "gross_util": open_loop.metrics.gross_utilization},
        {"variant": "feedback (extension)", "delivered":
         delivered_fraction(feedback),
         "retx_tx": feedback.metrics.retransmission_attempts,
         "gross_util": feedback.metrics.gross_utilization},
    ]
    print_rows("Ablation -- open-loop copies vs reactive feedback", rows,
               ("variant", "delivered", "retx_tx", "gross_util"))
    assert feedback.metrics.retransmission_attempts < \
        open_loop.metrics.retransmission_attempts
    assert delivered_fraction(feedback) > 0.995
