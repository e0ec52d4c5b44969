"""``campaign-store``: cold then warm campaign into a fresh cache and store.

One operation is a round: a cold 2-worker ``run_campaign(validate=True)``
of the Fig. 5 dynamic study (CoEfficient, 25 minislots, 20 periodic and
30 SAE aperiodic messages, BER 1e-7) into an empty seed cache and an
empty result store, then ``WARM_RUNS`` warm re-runs of the same
campaign, each of which reads every seed from the cache and re-ingests
into the store.  Each warm result must carry the same
``store_campaign_id`` and the same summaries as the cold one, with every
seed a cache hit; every round's cold campaign must also get the same
store id as the first.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import sqlite3
import statistics
import time
from typing import Dict, List, Tuple

import calib
from common import (WORK_DIR, Outcome, peak_rss_mb, run_scale,
                    scaled_setup_s, tail)
from layers import (campaign_targets, finish_trace, merge_totals,
                    phase_totals, write_spans)
from spans import Patcher, Tracer, snapshot, wrapped_slots

SEEDS_PER_CAMPAIGN = 6
#: Warm re-runs after each cold campaign; each is one warm sample.
WARM_RUNS = 3
WORKERS = 2
DURATION_MS = 250.0
#: Processes one run is split over, one after the other.
PHASES = 8


def campaign_kwargs(seed: int) -> Dict[str, object]:
    """``run_campaign`` arguments of the round at workload seed ``seed``."""
    from repro.experiments.figures import (_goal_for, dynamic_study_aperiodic,
                                           dynamic_study_periodic,
                                           paper_dynamic_preset)

    return dict(
        scheduler="coefficient",
        seeds=[seed * 1000 + index for index in range(SEEDS_PER_CAMPAIGN)],
        params=paper_dynamic_preset(25),
        periodic=dynamic_study_periodic(),
        aperiodic=dynamic_study_aperiodic(),
        ber=1e-7, reliability_goal=_goal_for(1e-7),
        duration_ms=DURATION_MS,
        workers=WORKERS, validate=True, store_workload="fig5-dynamic")


def prepare(workload: str, seed: int) -> Dict[str, object]:
    """Set-up: imports and input generation."""
    import repro.experiments.campaign  # noqa: F401
    import repro.results.store  # noqa: F401

    return campaign_kwargs(seed)


def _same_summaries(cold, warm) -> bool:
    def flat(campaign) -> List[float]:
        return [value for name in sorted(campaign.summaries)
                for value in vars(campaign.summaries[name]).values()
                if not isinstance(value, str)]

    if sorted(cold.summaries) != sorted(warm.summaries):
        return False
    return all(a == b or (math.isnan(a) and math.isnan(b))
               for a, b in zip(flat(cold), flat(warm)))


def _store_rows(path: str) -> int:
    """Rows in every table of a result store, read without the store API."""
    with contextlib.closing(sqlite3.connect(path)) as connection:
        tables = [name for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")]
        return sum(connection.execute(f'SELECT COUNT(*) FROM "{name}"')
                   .fetchone()[0] for name in tables)


def _round(kwargs, name: str, probes: List[float], tracer: Tracer = None
           ) -> Tuple[float, List[float], int, str, List[str]]:
    """One cold run and ``WARM_RUNS`` warm re-runs in a fresh directory.

    Appends a host-speed probe to ``probes`` after each run.  Returns
    (cold s, warm s each, store rows, store id, problems).
    """
    from repro.experiments import campaign as campaign_module

    directory = os.path.join(WORK_DIR, name)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    paths = dict(cache_dir=os.path.join(directory, "cache"),
                 store=os.path.join(directory, "results.db"))
    walls = []
    results = []
    for run in ["cold"] + [f"warm{index}" for index in range(WARM_RUNS)]:
        if tracer is not None:
            tracer.ident = f"{name}-{run}"
        start = time.perf_counter()
        with (tracer.span("bench.round") if tracer is not None
              else contextlib.nullcontext()):
            results.append(campaign_module.run_campaign(**kwargs, **paths))
        walls.append(time.perf_counter() - start)
        probes.append(calib.probe())
    cold = results[0]
    problems = []
    if cold.failures:
        problems.append(f"failed seeds {[f.seed for f in cold.failures]}")
    for warm in results[1:]:
        if warm.store_campaign_id != cold.store_campaign_id:
            problems.append(f"warm store id {warm.store_campaign_id} != "
                            f"cold {cold.store_campaign_id}")
        if not _same_summaries(cold, warm):
            problems.append("warm summaries differ from cold")
        if (warm.failures or warm.simulations_run
                or warm.cache_hits != len(kwargs["seeds"])):
            problems.append(f"warm run simulated {warm.simulations_run} "
                            f"seeds")
    rows = _store_rows(paths["store"])
    shutil.rmtree(directory, ignore_errors=True)
    return (walls[0], walls[1:], rows, cold.store_campaign_id,
            [f"{name}: {problem}" for problem in problems])


def _rounds(kwargs, seconds: float, prefix: str, samples: Dict[str, list],
            tracer: Tracer = None) -> Tuple[List[float], List[float]]:
    """Rounds until ``seconds`` pass (at least one).

    Returns unscaled (colds, warms); host-speed probes, taken before
    the first round and after every campaign run, go to
    ``samples["probes"]``.
    """
    colds, warms, totals = [], [], []
    probes = samples["probes"]
    probes.append(calib.probe())
    deadline = time.perf_counter() + seconds
    # Stop before a round that would end past the deadline.
    while not totals or time.perf_counter() + totals[-1] < deadline:
        cold, warm, rows, store_id, problems = _round(
            kwargs, f"{prefix}-{len(colds)}", probes, tracer)
        colds.append(cold)
        warms += warm
        totals.append(cold + sum(warm))
        samples["rows"].append(rows)
        samples["ids"].append(store_id)
        samples["problems"] += problems
    samples["round_s"] += totals
    return colds, warms


def phase(workload: str, seed: int, kwargs, index: int, seconds: float,
          trace: bool) -> Dict[str, object]:
    """Rounds in this process; raw samples for :func:`combine`."""
    targets = campaign_targets()
    samples: Dict[str, list] = {"problems": [], "rows": [], "ids": [],
                                "round_s": [], "probes": []}
    prefix = f"phase{index}-seed{seed}"
    try:
        if not trace:
            leftover = wrapped_slots(targets)
            if leftover:
                samples["problems"].append(
                    f"wrappers installed in an untraced run: {leftover}")
            colds, warms = _rounds(kwargs, seconds, prefix, samples)
        else:
            _rounds(kwargs, 0.0, prefix + "-plain", samples)
            plain = statistics.median(samples["round_s"])
            before = snapshot(targets)
            tracer = Tracer()
            with Patcher(tracer) as patcher:
                patcher.install(targets)
                colds, warms = _rounds(kwargs, seconds - plain, prefix,
                                       samples, tracer)
            if snapshot(targets) != before:
                samples["problems"].append("a wrapped attribute was not "
                                           "restored")
            write_spans(tracer, workload, index)
            samples["overhead"] = statistics.median(
                samples["round_s"][1:]) / plain
            samples["totals"] = phase_totals(tracer)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    samples.update(colds=colds, warms=warms,
                   peak_rss_mb=peak_rss_mb(include_children=True))
    return samples


def combine(workload: str, seed: int, phases: List[Dict[str, object]],
            trace: bool) -> Outcome:
    outcome = Outcome()
    for samples in phases:
        for problem in samples["problems"]:
            outcome.fail(problem)
    ids = [store_id for samples in phases for store_id in samples["ids"]]
    if len(set(ids)) != 1:
        outcome.fail(f"cold campaigns got different store ids "
                     f"{sorted(set(ids))}", operations=0)
    scale = run_scale(phases)
    colds = [cold * scale for samples in phases for cold in samples["colds"]]
    warms = [warm * scale for samples in phases for warm in samples["warms"]]
    outcome.attempted = len(ids)
    rows = phases[0]["rows"][0]
    if trace:
        summary = merge_totals([samples["totals"] for samples in phases],
                               len(colds), {
            "bench.trace_overhead": statistics.median(
                samples["overhead"] for samples in phases),
            "results.store.rows": rows,
        })
        finish_trace(outcome, summary, workload, seed,
                     sum(samples["totals"]["spans"] for samples in phases))
    seeds = SEEDS_PER_CAMPAIGN
    seeds_per_s = [seeds / cold for cold in colds]
    q, warm_tail = tail(warms)
    outcome.e2e.update({
        "setup_s": scaled_setup_s(phases),
        "peak_rss_mb": max(samples["peak_rss_mb"] for samples in phases),
        "work_per_s": statistics.median(seeds_per_s),
        "op_p50_ms": statistics.median(warms) * 1000.0,
        "op_tail_ms": warm_tail * 1000.0,
    })
    outcome.notes.append(
        f"{workload}: {len(colds)} rounds of {seeds} seeds x "
        f"{DURATION_MS:g} ms in {len(phases)} processes; cold p50 "
        f"{statistics.median(colds):.3f} s "
        f"({statistics.median(seeds_per_s):.2f} seeds/s); warm_reduce p50 "
        f"{statistics.median(warms):.3f} s, tail p{q:g} {warm_tail:.3f} s "
        f"(n={len(warms)}); host-speed factor {scale:.3f}; store rows "
        f"{rows}; store id {ids[0][:16]}")
    return outcome
