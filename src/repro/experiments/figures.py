"""Regenerates the data behind every table and figure of Section IV.

Each public function returns a list of flat row dicts -- the same rows
the paper plots -- so the benchmark harness can both print them and
assert on their shape (who wins, by roughly what factor).

Configuration notes (the full rationale is in DESIGN.md / EXPERIMENTS.md):

- **BER-to-goal pairing.** The paper states its two BER settings
  "correspond to different reliability goals" and observes *more*
  retransmission under BER = 1e-9.  We therefore pair each BER with a
  reliability goal: (1e-7, 1 - 1e-4) and (1e-9, 1 - 1e-12).  The
  stricter goal of the second pair is what drives its larger
  retransmission budgets, reproducing the paper's "higher reliability ->
  more retransmitted segments -> larger delays" trend.

- **Case-study parameters.** The published gdStaticSlot (40 MT) cannot
  carry the published BBW/ACC message sizes at 10 Mbit/s, so the
  case-study clusters derive their slot length/count from the workload
  (:func:`repro.packing.frame_packing.derive_params_for`); the synthetic
  experiments run the paper's exact published configuration.

- **Open-loop redundancy.** Retransmissions are planned copies (FlexRay
  has no acknowledgements); see :mod:`repro.core.queueing`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.runner import run_experiment
from repro.protocol.backend import get_backend
from repro.protocol.geometry import SegmentGeometry
from repro.obs import NULL_OBS
from repro.protocol.signal import SignalSet
from repro.workloads.acc import acc_signals
from repro.workloads.bbw import bbw_signals
from repro.workloads.sae import sae_aperiodic_signals
from repro.workloads.synthetic import synthetic_signals

__all__ = [
    "BER_RELIABILITY_PAIRING",
    "case_study_params",
    "dynamic_study_periodic",
    "dynamic_study_aperiodic",
    "fig1_2_running_time",
    "fig3_bandwidth_utilization",
    "fig4_transmission_latency",
    "extension_utilization_sweep",
    "fig5_deadline_miss_ratio",
    "table2_bbw_rows",
    "table3_acc_rows",
]

#: BER -> reliability goal rho (see module docstring).
BER_RELIABILITY_PAIRING: Dict[float, float] = {
    1e-7: 1.0 - 1e-4,
    1e-9: 1.0 - 1e-12,
}

#: Schedulers compared in every figure, CoEfficient first.
_COMPARED = ("coefficient", "fspec")

#: Experiment seed of every figure run.
SEED = 42


def _goal_for(ber: float) -> float:
    """Reliability goal paired with a BER setting."""
    if ber in BER_RELIABILITY_PAIRING:
        return BER_RELIABILITY_PAIRING[ber]
    return 1.0 - 1e-6


# ----------------------------------------------------------------------
# Workload and parameter construction
# ----------------------------------------------------------------------

def dynamic_study_periodic(count: int = 20, seed: int = 7) -> SignalSet:
    """Synthetic periodic set sized for the paper's dynamic-study preset.

    Sizes fit the preset's 30-MT static slot (216-bit payload capacity);
    deadlines are kept at >= 5 ms so the miss-ratio figures measure
    scheduling quality rather than structurally impossible deadlines.
    """
    return synthetic_signals(
        count, seed=seed, max_size_bits=216,
        deadlines_ms=(5.0, 10.0, 15.0, 20.0),
    )


def dynamic_study_aperiodic(count: int = 30, seed: int = 11) -> SignalSet:
    """SAE-style aperiodic set creating real dynamic-segment contention.

    The paper's 30 messages with a 50 ms deadline; the paper does not
    state sizes or the event rate its hosts' interrupt routines actually
    produced, so those are chosen to create the contention regime its
    results exhibit (FSPEC missing ~20 % of deadlines): sizes of
    600-1800 bits (every message still fits the 25-minislot dynamic
    segment -- no structurally impossible frames) at a 20 ms minimum
    inter-arrival.  A single channel's dynamic segment saturates at the
    small-minislot end once FSPEC's blanket retransmission copies are
    added, while CoEfficient's dual-channel unified pool plus static
    slack absorbs the same load.
    """
    return sae_aperiodic_signals(
        count=count, seed=seed,
        interarrival_ms=20.0, deadline_ms=50.0,
        min_size_bits=600, max_size_bits=1800,
    )


def paper_dynamic_preset(minislots: int = 100) -> SegmentGeometry:
    """The paper's dynamic-study preset (FlexRay backend)."""
    return get_backend("flexray").dynamic_preset(minislots)


def paper_static_preset(static_slots: int = 80) -> SegmentGeometry:
    """The paper's static-study preset (FlexRay backend)."""
    return get_backend("flexray").static_preset(static_slots)


def case_study_params(workload: str, minislots: int = 50) -> SegmentGeometry:
    """Derived cluster parameters for a case-study workload.

    Delegates to the FlexRay backend's derivation (slot headroom 1.1
    for BBW, 1.6 for ACC; see
    :meth:`repro.protocol.backend.ProtocolBackend.case_study_params`).

    Args:
        workload: ``"bbw"`` or ``"acc"``.
        minislots: Dynamic-segment length.
    """
    return get_backend("flexray").case_study_params(workload, minislots)


def _case_study_signals(workload: str) -> SignalSet:
    if workload == "bbw":
        return bbw_signals()
    if workload == "acc":
        return acc_signals()
    raise ValueError(f"unknown case study {workload!r}")


# ----------------------------------------------------------------------
# Tables II and III
# ----------------------------------------------------------------------

def table2_bbw_rows() -> List[Dict[str, float]]:
    """Paper Table II: the BBW message parameters, regenerated."""
    return [
        {
            "message": index + 1,
            "offset_ms": signal.offset_ms,
            "period_ms": signal.period_ms,
            "deadline_ms": signal.deadline_ms,
            "size_bits": signal.size_bits,
        }
        for index, signal in enumerate(bbw_signals())
    ]


def table3_acc_rows() -> List[Dict[str, float]]:
    """Paper Table III: the ACC message parameters, regenerated."""
    return [
        {
            "message": index + 1,
            "offset_ms": signal.offset_ms,
            "period_ms": signal.period_ms,
            "deadline_ms": signal.deadline_ms,
            "size_bits": signal.size_bits,
        }
        for index, signal in enumerate(acc_signals())
    ]


# ----------------------------------------------------------------------
# Figures 1-2: running time
# ----------------------------------------------------------------------

def fig1_2_running_time(
    ber: float = 1e-7,
    instance_limits: Sequence[int] = (10, 20, 40),
    synthetic_counts: Sequence[int] = (20, 40),
    static_slot_options: Sequence[int] = (80, 120),
    obs=NULL_OBS,
    engine_mode: str = "vectorized",
) -> List[Dict[str, float]]:
    """Figure 1 (BER = 1e-7) / Figure 2 (BER = 1e-9): running time.

    Completion-mode runs: every message releases a fixed number of
    instances and the row reports the simulated time at which the last
    deliverable instance landed.

    Args:
        ber: Bit error rate (choose 1e-7 for Fig. 1, 1e-9 for Fig. 2).
        instance_limits: Per-message instance counts for the case
            studies ("number of messages" axis, part (a)).
        synthetic_counts: Message-set sizes for the synthetic sweep
            (part (b)).
        static_slot_options: gNumberOfStaticSlots settings (80 / 120,
            which also shift the aperiodic frame IDs as in the paper).
        engine_mode: Simulation engine mode (``"vectorized"`` or
            ``"interpreter"``); the figures are identical in both
            modes, only wall-clock time differs (``BENCH_engine.json``).
    """
    rho = _goal_for(ber)
    rows: List[Dict[str, float]] = []

    def _policy_kwargs(scheduler: str) -> Dict[str, object]:
        # FSPEC's blanket best-effort redundancy scales with the target
        # reliability regime the same way CoEfficient's budgets do --
        # except uniformly, for every message.
        if scheduler == "fspec":
            return {"retransmission_copies": 1 if ber >= 1e-8 else 2}
        return {}

    # Part (a): BBW and ACC case studies.
    for workload in ("bbw", "acc"):
        params = case_study_params(workload, minislots=50)
        for limit in instance_limits:
            for scheduler in _COMPARED:
                result = run_experiment(
                    params=params,
                    scheduler=scheduler,
                    periodic=_case_study_signals(workload),
                    aperiodic=sae_aperiodic_signals(),
                    ber=ber,
                    seed=SEED,
                    duration_ms=None,
                    instance_limit=limit,
                    reliability_goal=rho,
                    drop_expired_dynamic=False,
                    obs=obs,
                    engine_mode=engine_mode,
                    **_policy_kwargs(scheduler),
                )
                rows.append({
                    "figure": "1a/2a",
                    "workload": workload,
                    "messages": limit * (20 + 30),
                    "scheduler": scheduler,
                    "ber": ber,
                    "running_time_ms": result.completion_ms,
                    "last_delivery_ms": result.metrics.last_delivery_ms,
                    "delivered": result.metrics.delivered_instances,
                    "produced": result.metrics.produced_instances,
                })

    # Part (b): synthetic test cases at 80 and 120 static slots.
    for static_slots in static_slot_options:
        params = paper_static_preset(static_slots)
        for count in synthetic_counts:
            periodic = synthetic_signals(count, seed=7)
            for scheduler in _COMPARED:
                result = run_experiment(
                    params=params,
                    scheduler=scheduler,
                    periodic=periodic,
                    aperiodic=sae_aperiodic_signals(),
                    ber=ber,
                    seed=SEED,
                    duration_ms=None,
                    instance_limit=20,
                    reliability_goal=rho,
                    drop_expired_dynamic=False,
                    obs=obs,
                    engine_mode=engine_mode,
                    **_policy_kwargs(scheduler),
                )
                rows.append({
                    "figure": "1b/2b",
                    "workload": f"synthetic-{count}",
                    "static_slots": static_slots,
                    "messages": 20 * (count + 30),
                    "scheduler": scheduler,
                    "ber": ber,
                    "running_time_ms": result.completion_ms,
                    "last_delivery_ms": result.metrics.last_delivery_ms,
                    "delivered": result.metrics.delivered_instances,
                    "produced": result.metrics.produced_instances,
                })
    return rows


# ----------------------------------------------------------------------
# Figure 3: bandwidth utilization
# ----------------------------------------------------------------------

def fig3_bandwidth_utilization(
    minislot_options: Sequence[int] = (25, 50, 75, 100),
    ber: float = 1e-7,
    duration_ms: float = 500.0,
    obs=NULL_OBS,
) -> List[Dict[str, float]]:
    """Figure 3: bandwidth utilization vs gNumberOfMinislots.

    Paper result: CoEfficient improves utilization over FSPEC by
    56.2 / 55.3 / 53.8 / 52.2 % at 25 / 50 / 75 / 100 minislots.
    """
    rho = _goal_for(ber)
    rows: List[Dict[str, float]] = []
    for minislots in minislot_options:
        params = paper_dynamic_preset(minislots)
        for scheduler in _COMPARED:
            result = run_experiment(
                params=params,
                scheduler=scheduler,
                periodic=dynamic_study_periodic(),
                aperiodic=dynamic_study_aperiodic(),
                ber=ber,
                seed=SEED,
                duration_ms=duration_ms,
                reliability_goal=rho,
                obs=obs,
            )
            rows.append({
                "figure": "3",
                "minislots": minislots,
                "scheduler": scheduler,
                "ber": ber,
                "bandwidth_utilization": result.metrics.bandwidth_utilization,
                "gross_utilization": result.metrics.gross_utilization,
                "efficiency": result.metrics.efficiency,
            })
    return rows


# ----------------------------------------------------------------------
# Figure 4: transmission latency
# ----------------------------------------------------------------------

def fig4_transmission_latency(
    minislot_options: Sequence[int] = (50, 100),
    bers: Sequence[float] = (1e-7, 1e-9),
    duration_ms: float = 500.0,
    obs=NULL_OBS,
) -> List[Dict[str, float]]:
    """Figure 4: average static/dynamic latency, synthetic + case studies.

    Paper results (shapes to match): CoEfficient's static latency is
    roughly 0.55-0.75x FSPEC's, its dynamic latency 0.3-0.7x, and both
    grow when the reliability goal tightens (the BER = 1e-9 pairing).
    """
    rows: List[Dict[str, float]] = []
    for ber in bers:
        rho = _goal_for(ber)
        # (a)/(c): synthetic workload on the paper's dynamic preset.
        for minislots in minislot_options:
            params = paper_dynamic_preset(minislots)
            for scheduler in _COMPARED:
                result = run_experiment(
                    params=params,
                    scheduler=scheduler,
                    periodic=dynamic_study_periodic(),
                    aperiodic=dynamic_study_aperiodic(),
                    ber=ber,
                    seed=SEED,
                    duration_ms=duration_ms,
                    reliability_goal=rho,
                    obs=obs,
                )
                rows.append({
                    "figure": "4ac",
                    "workload": "synthetic",
                    "minislots": minislots,
                    "scheduler": scheduler,
                    "ber": ber,
                    "static_latency_ms": result.metrics.static_latency.mean_ms,
                    "dynamic_latency_ms": result.metrics.dynamic_latency.mean_ms,
                })
        # (b)/(d): BBW and ACC case studies.
        for workload in ("bbw", "acc"):
            params = case_study_params(workload, minislots=50)
            for scheduler in _COMPARED:
                result = run_experiment(
                    params=params,
                    scheduler=scheduler,
                    periodic=_case_study_signals(workload),
                    aperiodic=sae_aperiodic_signals(),
                    ber=ber,
                    seed=SEED,
                    duration_ms=duration_ms,
                    reliability_goal=rho,
                    obs=obs,
                )
                rows.append({
                    "figure": "4bd",
                    "workload": workload,
                    "minislots": 50,
                    "scheduler": scheduler,
                    "ber": ber,
                    "static_latency_ms": result.metrics.static_latency.mean_ms,
                    "dynamic_latency_ms": result.metrics.dynamic_latency.mean_ms,
                })
    return rows


# ----------------------------------------------------------------------
# Figure 5: deadline miss ratio
# ----------------------------------------------------------------------

def fig5_deadline_miss_ratio(
    minislot_options: Sequence[int] = (25, 50, 75, 100),
    bers: Sequence[float] = (1e-7, 1e-9),
    duration_ms: float = 500.0,
    obs=NULL_OBS,
) -> List[Dict[str, float]]:
    """Figure 5: deadline miss ratio vs gNumberOfMinislots.

    Paper result: CoEfficient averages 4.8 % (BER-7) / 3.2 % (BER-9)
    missed messages; FSPEC 21.3 % / 19.5 %.
    """
    rows: List[Dict[str, float]] = []
    for ber in bers:
        rho = _goal_for(ber)
        for minislots in minislot_options:
            params = paper_dynamic_preset(minislots)
            for scheduler in _COMPARED:
                result = run_experiment(
                    params=params,
                    scheduler=scheduler,
                    periodic=dynamic_study_periodic(),
                    aperiodic=dynamic_study_aperiodic(),
                    ber=ber,
                    seed=SEED,
                    duration_ms=duration_ms,
                    reliability_goal=rho,
                    obs=obs,
                )
                rows.append({
                    "figure": "5",
                    "minislots": minislots,
                    "scheduler": scheduler,
                    "ber": ber,
                    "deadline_miss_ratio": result.metrics.deadline_miss_ratio,
                    "produced": result.metrics.produced_instances,
                })
    return rows


# ----------------------------------------------------------------------
# Extension: utilization sweep (not a paper figure)
# ----------------------------------------------------------------------

def extension_utilization_sweep(
    utilizations: Sequence[float] = (0.05, 0.10, 0.15, 0.20),
    message_count: int = 25,
    minislots: int = 50,
    ber: float = 1e-7,
    duration_ms: float = 500.0,
) -> List[Dict[str, float]]:
    """Miss ratio vs controlled aperiodic bus utilization (extension).

    Uses UUniFast-generated event-triggered sets so total load is an
    *input*: each sweep point offers every scheduler the same exact
    utilization, giving the clean schedulability-style curve the paper's
    minislot sweep only implies.  Periodic load is held fixed.

    Args:
        utilizations: Aperiodic bus-utilization targets (fraction of one
            channel).
        message_count: Aperiodic messages per point.
        minislots: Dynamic-segment length.
        ber: Bit error rate (paired reliability goal applies).
        duration_ms: Horizon per run.
    """
    from repro.workloads.uunifast import uunifast_signals

    rho = _goal_for(ber)
    params = paper_dynamic_preset(minislots)
    periodic = dynamic_study_periodic()
    rows: List[Dict[str, float]] = []
    for utilization in utilizations:
        aperiodic = uunifast_signals(
            message_count, utilization, seed=SEED + 1,
            periods_ms=(10.0, 20.0, 40.0), aperiodic=True,
            min_size_bits=64, max_size_bits=1800,
        )
        achieved = aperiodic.total_utilization() / 10_000.0
        for scheduler in _COMPARED:
            result = run_experiment(
                params=params,
                scheduler=scheduler,
                periodic=periodic,
                aperiodic=aperiodic,
                ber=ber,
                seed=SEED,
                duration_ms=duration_ms,
                reliability_goal=rho,
            )
            rows.append({
                "figure": "ext-usweep",
                "target_utilization": utilization,
                "achieved_utilization": achieved,
                "scheduler": scheduler,
                "deadline_miss_ratio": result.metrics.deadline_miss_ratio,
                "dynamic_latency_ms":
                    result.metrics.dynamic_latency.mean_ms,
            })
    return rows
