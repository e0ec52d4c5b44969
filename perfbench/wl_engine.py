"""Engine workloads: ``engine-bbw`` and ``engine-dense``.

Each operation is one ``run_experiment`` call with the scenario's
inputs at the workload seed, without ``engine_mode`` -- so the numbers
follow whatever engine users get by default.  Every run's trace digest
must equal the digest pinned for that seed in ``pins.json``; on a seed
that is not pinned, the reference is one run of the ``interpreter``
oracle on that seed.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import Dict, List, Tuple

import calib
from common import (Outcome, load_pins, peak_rss_mb, run_scale,
                    scaled_setup_s, tail)
from layers import (engine_targets, finish_trace, merge_totals, phase_totals,
                    write_spans)
from spans import Patcher, Tracer, snapshot, wrapped_slots

#: Processes one run is split over.
PHASES = 8
#: Fewest runs one phase makes, whatever its share of ``--seconds``.
MIN_RUNS = 2


def scenario(workload: str, seed: int) -> Dict[str, object]:
    """``run_experiment`` keyword arguments of one workload at ``seed``."""
    from repro.experiments.figures import case_study_params, \
        paper_dynamic_preset
    from repro.flexray.signal import Signal, SignalSet
    from repro.workloads.bbw import bbw_signals

    if workload == "engine-bbw":
        # The bbw-completion scenario: CoEfficient on the Table II
        # brake-by-wire set, every message releasing 200 instances, run
        # until the workload (retransmissions included) completes.
        return dict(params=case_study_params("bbw"), scheduler="coefficient",
                    periodic=bbw_signals(), ber=1e-7, seed=seed,
                    duration_ms=None, instance_limit=200)
    if workload == "engine-dense":
        # The dense-trace scenario: 40 cycle-aligned messages with period
        # 2 x gdCycle keep ~20 static slots busy every cycle at BER 1e-3,
        # beside an idle 100-minislot dynamic segment.
        params = paper_dynamic_preset(100)
        period_ms = 2 * params.cycle_ms
        dense = SignalSet(
            [Signal(name=f"dense-{i:02d}", ecu=i % 10, period_ms=period_ms,
                    offset_ms=0.0, deadline_ms=period_ms, size_bits=144)
             for i in range(40)],
            name="dense")
        return dict(params=params, scheduler="static-only", periodic=dense,
                    ber=1e-3, seed=seed, duration_ms=1000.0)
    raise ValueError(f"unknown engine workload {workload!r}")


def oracle_digest(workload: str, seed: int) -> str:
    """Trace digest of the ``interpreter`` engine on the same inputs."""
    from repro.experiments.runner import run_experiment
    from repro.sim.trace import trace_digest

    result = run_experiment(engine_mode="interpreter",
                            **scenario(workload, seed))
    return trace_digest(result.cluster.trace)


def prepare(workload: str, seed: int) -> Dict[str, object]:
    """Set-up: imports and input generation."""
    import repro.experiments.runner  # noqa: F401
    import repro.sim.trace  # noqa: F401

    return scenario(workload, seed)


def _timed_runs(kwargs, seconds: float, digests: List[str],
                tracer: Tracer = None
                ) -> Tuple[List[float], List[int], List[float]]:
    """Run until ``seconds`` pass (at least MIN_RUNS).

    Returns (walls, cycles, host-speed probes): one probe before every
    run and one after the last.
    """
    from repro.experiments import runner
    from repro.sim.trace import trace_digest

    walls, cycles, probes = [], [], [calib.probe()]
    deadline = time.perf_counter() + seconds
    # Stop before a run that would end past the deadline.
    while (len(walls) < MIN_RUNS
           or time.perf_counter() + walls[-1] < deadline):
        if tracer is not None:
            tracer.ident = f"run-{len(walls)}"
        start = time.perf_counter()
        with (tracer.span("bench.run") if tracer is not None
              else contextlib.nullcontext()):
            result = runner.run_experiment(**kwargs)
        walls.append(time.perf_counter() - start)
        cycles.append(result.cycles_run)
        digests.append(trace_digest(result.cluster.trace))
        del result
        probes.append(calib.probe())
    return walls, cycles, probes


def phase(workload: str, seed: int, kwargs, index: int, seconds: float,
          trace: bool) -> Dict[str, object]:
    """Time runs in this process; raw samples for :func:`combine`."""
    targets = engine_targets()
    samples: Dict[str, object] = {"problems": []}
    digests: List[str] = []
    if not trace:
        leftover = wrapped_slots(targets)
        if leftover:
            samples["problems"].append(f"wrappers installed in an untraced "
                                       f"run: {leftover}")
        walls, cycles, probes = _timed_runs(kwargs, seconds, digests)
    else:
        # Untraced reference first, then the traced phase, in the same
        # process; the ratio of their median run walls is the overhead.
        plain, __, __ = _timed_runs(kwargs, seconds * 0.25, digests)
        before = snapshot(targets)
        tracer = Tracer()
        with Patcher(tracer) as patcher:
            patcher.install(targets)
            walls, cycles, probes = _timed_runs(kwargs, seconds * 0.75,
                                                digests, tracer)
        if snapshot(targets) != before:
            samples["problems"].append("a wrapped attribute was not "
                                       "restored")
        write_spans(tracer, workload, index)
        samples["overhead"] = statistics.median(walls) / statistics.median(
            plain)
        samples["totals"] = phase_totals(tracer)
    samples.update(walls=walls, cycles=cycles, probes=probes,
                   digests=digests, peak_rss_mb=peak_rss_mb())
    return samples


def combine(workload: str, seed: int, phases: List[Dict[str, object]],
            trace: bool) -> Outcome:
    outcome = Outcome()
    for samples in phases:
        for problem in samples["problems"]:
            outcome.fail(problem, operations=0)
    digests = [digest for samples in phases for digest in samples["digests"]]
    raw_walls = [wall for samples in phases for wall in samples["walls"]]
    scale = run_scale(phases)
    walls = [wall * scale for wall in raw_walls]
    cycles = [count for samples in phases for count in samples["cycles"]]
    outcome.attempted = len(digests)
    pinned = load_pins().get(workload, {}).get(str(seed))
    reference = pinned if pinned is not None else oracle_digest(workload,
                                                                seed)
    source = "pinned" if pinned is not None else "interpreter oracle"
    mismatched = sum(1 for digest in digests if digest != reference)
    if mismatched:
        outcome.fail(f"{mismatched} of {len(digests)} runs digest "
                     f"{sorted(set(digests))} != {source} {reference}",
                     operations=mismatched)
    if trace:
        summary = merge_totals([samples["totals"] for samples in phases],
                               len(walls), {
            "bench.trace_overhead": statistics.median(
                samples["overhead"] for samples in phases)})
        finish_trace(outcome, summary, workload, seed,
                     sum(samples["totals"]["spans"] for samples in phases))
    per_s = [count / wall for count, wall in zip(cycles, walls)]
    q, tail_wall = tail(walls)
    outcome.e2e.update({
        "setup_s": scaled_setup_s(phases),
        "peak_rss_mb": max(samples["peak_rss_mb"] for samples in phases),
        "work_per_s": statistics.median(per_s),
        "op_p50_ms": statistics.median(walls) * 1000.0,
        "op_tail_ms": tail_wall * 1000.0,
    })
    outcome.notes.append(
        f"{workload}: {len(walls)} runs of {cycles[0]} cycles in "
        f"{len(phases)} processes; sim_cycles_per_s p50 "
        f"{statistics.median(per_s):.1f}; run wall p50 "
        f"{statistics.median(walls) * 1000:.1f} ms, tail p{q:g} "
        f"{tail_wall * 1000:.1f} ms (n={len(walls)}); unscaled run wall "
        f"p50 {statistics.median(raw_walls) * 1000:.1f} ms, host-speed "
        f"factor {scale:.3f}; digest "
        f"{digests[0][:16]} checked against {source}")
    return outcome
