"""Monte-Carlo experiment campaigns.

A single seeded run is reproducible but still one sample; the paper's
"extensive experiments" imply repetition.  A campaign runs the same
configuration across many seeds and reports mean / spread / confidence
intervals per metric, so claims like "CoEfficient's miss ratio is lower"
can be made with error bars instead of single draws.

Execution model
---------------

Seeds are embarrassingly parallel: each one is an independent sample
with its own workload jitter and fault pattern.  ``run_campaign(...,
workers=N)`` fans them out over this process's one spawn worker pool
(a ``concurrent.futures.ProcessPoolExecutor``): the first parallel
campaign starts it, later campaigns with the same ``workers`` reuse its
warm workers, and the interpreter's exit handler shuts it down.  Every
seed runs in its **own fresh observability context** (no shared
registry to race on or leak across seeds) and the parent merges the
per-seed results and :class:`~repro.obs.snapshot.ObsSnapshot`\\ s back together
**in seed order**, so summaries, counters, and deterministic JSONL
exports are identical to a serial run over the same seeds regardless of
worker count or completion order.  Timers and profiler sections are
wall clock and therefore excluded from that guarantee.

A seed whose run raises, or whose worker process dies, is retried once
(:data:`SEED_ATTEMPTS`); a seed that fails again is surfaced in
:attr:`CampaignResult.failures` instead of killing the campaign, and
summaries cover the seeds that completed.

With ``cache_dir=`` set, completed seed runs persist in a
content-addressed on-disk cache (see :mod:`repro.experiments.cache`)
keyed by scheduler + seed + the full experiment configuration; a warm
re-run of the same campaign performs zero new simulations.

Statistics
----------

Confidence intervals use two-sided 95 % Student-t critical values for
df = 1..29 and the normal approximation (1.96) from df >= 30.  A df
that somehow falls between table entries rounds *down* to the nearest
tabulated df, which has the larger critical value -- the conservative
direction for a confidence interval.
"""

from __future__ import annotations

import atexit
import math
import statistics
import threading
import traceback
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.experiments.cache import CampaignCache
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.obs.export import attach_event_capture
from repro.obs.observability import NULL_OBS, Observability
from repro.obs.snapshot import ObsSnapshot

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = ["CAMPAIGN_METRICS", "MetricSummary", "CampaignFailure",
           "CampaignResult", "run_campaign", "compare_campaigns"]

#: Attempts per seed: a seed whose run raises is retried once.
SEED_ATTEMPTS = 2

#: Two-sided 95 % Student-t critical values for df = 1..29; from df >= 30
#: the normal approximation (1.96) applies.
_T_95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
         7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
         13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110,
         18: 2.101, 19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074,
         23: 2.069, 24: 2.064, 25: 2.060, 26: 2.056, 27: 2.052,
         28: 2.048, 29: 2.045}


def _t_critical(df: int) -> float:
    if df <= 0:
        return float("inf")
    if df >= 30:
        return 1.96
    value = _T_95.get(df)
    if value is not None:
        return value
    # Between table entries, round down to the nearest tabulated df:
    # the smaller df has the *larger* critical value, so the interval
    # stays conservative rather than anti-conservative.
    return _T_95[max(bound for bound in _T_95 if bound <= df)]


@dataclass(frozen=True)
class MetricSummary:
    """Mean, spread and 95 % CI of one metric over a campaign."""

    name: str
    samples: int
    mean: float
    stdev: float
    ci_low: float
    ci_high: float
    minimum: float
    maximum: float

    @staticmethod
    def of(name: str, values: Sequence[float]) -> "MetricSummary":
        if not values:
            raise ValueError(f"no samples for metric {name}")
        mean = statistics.fmean(values)
        stdev = statistics.stdev(values) if len(values) > 1 else 0.0
        half_width = (_t_critical(len(values) - 1) * stdev
                      / math.sqrt(len(values))) if len(values) > 1 else 0.0
        return MetricSummary(
            name=name, samples=len(values), mean=mean, stdev=stdev,
            ci_low=mean - half_width, ci_high=mean + half_width,
            minimum=min(values), maximum=max(values),
        )

    @staticmethod
    def skipped(name: str) -> "MetricSummary":
        """A zero-sample summary (every seed's value was undefined)."""
        nan = float("nan")
        return MetricSummary(name=name, samples=0, mean=nan, stdev=nan,
                             ci_low=nan, ci_high=nan, minimum=nan,
                             maximum=nan)

    def overlaps(self, other: "MetricSummary") -> bool:
        """Whether the two 95 % CIs overlap (a quick separation check)."""
        return not (self.ci_high < other.ci_low
                    or other.ci_high < self.ci_low)


@dataclass(frozen=True)
class CampaignFailure:
    """One seed that kept failing after its retry.

    Attributes:
        seed: The failing seed.
        attempts: How many times it was tried.
        error: Formatted traceback of the final attempt.
    """

    seed: int
    attempts: int
    error: str


@dataclass
class CampaignResult:
    """All per-seed results plus per-metric summaries.

    ``results`` (and ``obs_snapshots`` when observability was enabled)
    are ordered by the input seed order, covering the seeds that
    completed; ``failures`` lists the seeds that did not.
    """

    scheduler: str
    seeds: List[int]
    results: List[ExperimentResult]
    summaries: Dict[str, MetricSummary] = field(default_factory=dict)
    failures: List[CampaignFailure] = field(default_factory=list)
    obs_snapshots: List[ObsSnapshot] = field(default_factory=list)
    cache_hits: int = 0
    simulations_run: int = 0
    store_campaign_id: Optional[str] = None

    @property
    def completed_seeds(self) -> List[int]:
        """Seeds that produced a result, in input order."""
        failed = {failure.seed for failure in self.failures}
        return [seed for seed in self.seeds if seed not in failed]

    def summary(self, metric: str) -> MetricSummary:
        return self.summaries[metric]

    def table_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {"scheduler": self.scheduler,
                                  "seeds": len(self.results)}
        for name, summary in self.summaries.items():
            row[name] = round(summary.mean, 4)
            row[f"{name}_ci"] = (f"[{summary.ci_low:.4f}, "
                                 f"{summary.ci_high:.4f}]")
        return row


_METRIC_EXTRACTORS: Dict[str, Callable[[ExperimentResult], float]] = {
    "deadline_miss_ratio":
        lambda r: r.metrics.deadline_miss_ratio,
    "bandwidth_utilization":
        lambda r: r.metrics.bandwidth_utilization,
    "dynamic_latency_ms":
        lambda r: r.metrics.dynamic_latency.mean_ms,
    "static_latency_ms":
        lambda r: r.metrics.static_latency.mean_ms,
    # A run that produced zero instances has no delivered fraction: it
    # reports NaN and is excluded from the summary as a skipped sample
    # (0.0 would silently drag the campaign mean down).
    "delivered_fraction":
        lambda r: (r.metrics.delivered_instances
                   / r.metrics.produced_instances)
        if r.metrics.produced_instances else float("nan"),
}

#: The metrics every campaign summarizes.
CAMPAIGN_METRICS: Tuple[str, ...] = tuple(_METRIC_EXTRACTORS)


def _summarize(name: str, values: Sequence[float]) -> MetricSummary:
    """Summarize one metric, excluding NaN (skipped) samples."""
    finite = [value for value in values if not math.isnan(value)]
    if not finite:
        return MetricSummary.skipped(name)
    return MetricSummary.of(name, finite)


# ----------------------------------------------------------------------
# Seed execution (runs in the parent or in a spawn worker)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _SeedTask:
    """Everything one seed attempt needs; must pickle under spawn."""

    index: int
    seed: int
    attempt: int
    scheduler: str
    collect_obs: bool
    crash_attempts: int
    experiment_kwargs: Dict[str, object]


def _execute_seed(task: _SeedTask) \
        -> Tuple[ExperimentResult, Optional[ObsSnapshot]]:
    """Run one seed in an isolated observability context.

    ``crash_attempts`` is the fault-injection hook the robustness tests
    use: the first that-many attempts raise before simulating, which
    exercises the retry/failure machinery across real process
    boundaries without any cross-process shared state.
    """
    if task.attempt < task.crash_attempts:
        raise RuntimeError(
            f"injected crash: seed {task.seed} attempt {task.attempt}")
    if task.collect_obs:
        child = Observability()
        recorder = attach_event_capture(child)
        result = run_experiment(scheduler=task.scheduler, seed=task.seed,
                                obs=child, **task.experiment_kwargs)
        return result, ObsSnapshot.capture(child, events=recorder)
    result = run_experiment(scheduler=task.scheduler, seed=task.seed,
                            **task.experiment_kwargs)
    return result, None


def _campaign_worker(task: _SeedTask):
    """Worker entry point: exceptions travel home as formatted strings.

    Catching here keeps the parent's retry logic identical between
    serial and parallel execution.
    """
    try:
        return "ok", _execute_seed(task)
    except Exception:
        return "error", traceback.format_exc()


def _run_serial(tasks: Sequence[_SeedTask], max_attempts: int,
                outcomes: Dict[int, tuple]) -> None:
    for task in tasks:
        attempt = task.attempt
        while True:
            try:
                result, snapshot = _execute_seed(
                    replace(task, attempt=attempt))
            except Exception:
                attempt += 1
                if attempt >= max_attempts:
                    outcomes[task.index] = (
                        "failed", traceback.format_exc(), attempt)
                    break
            else:
                outcomes[task.index] = ("ok", result, snapshot)
                break


#: This process's spawn worker pool and its worker count, or ``None``
#: before the first parallel campaign (see :func:`_worker_pool`).
_pool: Optional[Tuple[int, ProcessPoolExecutor]] = None
_pool_lock = threading.Lock()


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide spawn pool of ``workers`` workers.

    Reused by every parallel campaign with the same ``workers``, so
    only the first pays worker start-up (interpreter, numpy and
    ``repro`` imports); a different count replaces it.  Workers start
    on demand, and ``concurrent.futures``' exit handler joins them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != workers:
            _pool[1].shutdown()
            _pool = None
        if _pool is None:
            _pool = (workers, ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")))
        return _pool[1]


def _drop_pool(pool: Optional[ProcessPoolExecutor] = None) -> None:
    """Shut the process-wide pool down, if it is still ``pool`` when given."""
    global _pool
    with _pool_lock:
        if _pool is not None and (pool is None or pool is _pool[1]):
            _pool[1].shutdown()
            _pool = None


# By the time ``atexit`` runs, ``concurrent.futures`` has already joined
# the workers; dropping the pool here only lets it be collected before
# module teardown, where its weakref callback would raise into stderr.
atexit.register(_drop_pool)


def _run_parallel(tasks: Sequence[_SeedTask], workers: int,
                  max_attempts: int, outcomes: Dict[int, tuple]) -> None:
    """Fan tasks over the shared spawn pool; retries resubmit in waves.

    Spawn (rather than fork) keeps workers import-clean on every
    platform and guarantees no parent state -- RNG, registries, caches
    -- reaches a seed run; a worker keeps its module state across seeds
    and campaigns, as the serial path's one process does.  A dead
    worker breaks the pool, which is dropped; :func:`run_campaign`
    says how its seeds are charged.  Seeds a broken pool never
    accepted are resent uncharged.
    """
    from concurrent.futures.process import BrokenProcessPool

    pending = list(tasks)
    while pending:
        pool = _worker_pool(workers)
        submitted: List[Tuple[_SeedTask, Future]] = []
        broken = False
        try:
            for task in pending:
                submitted.append((task, pool.submit(_campaign_worker,
                                                    task)))
        except BrokenProcessPool:
            broken = True
        pending = pending[len(submitted):]
        try:
            for task, future in submitted:
                try:
                    status, payload = future.result()
                except BrokenProcessPool:
                    broken = True
                    status, payload = "error", traceback.format_exc()
                if status == "ok":
                    result, snapshot = payload
                    outcomes[task.index] = ("ok", result, snapshot)
                elif task.attempt + 1 < max_attempts:
                    pending.append(replace(task, attempt=task.attempt + 1))
                else:
                    outcomes[task.index] = ("failed", payload,
                                            task.attempt + 1)
        finally:
            # Only reached with work left if something raised: keep the
            # shared pool from running seeds nobody waits for.
            for _task, future in submitted:
                future.cancel()
        if broken:
            _drop_pool(pool)


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------

#: ``run_experiment`` keyword arguments the pre-campaign gate can check
#: statically (the subset :func:`repro.verify.verifier.verify_experiment`
#: understands).
_VALIDATABLE_KWARGS = ("params", "periodic", "aperiodic", "ber",
                       "reliability_goal", "time_unit_ms")


def _validate_campaign(obs, **experiment_kwargs) -> None:
    """Statically verify a campaign configuration before simulating.

    Runs the simulation-free checks of :mod:`repro.verify` over the
    forwarded experiment configuration and raises with the full
    structured report when any ERROR-severity finding fires -- so a
    thousand-seed campaign fails in milliseconds instead of after the
    first full simulation (or worse, after all of them).
    """
    from repro.verify.verifier import ConfigurationError, verify_experiment

    if "params" not in experiment_kwargs:
        raise ValueError(
            "validate=True needs an explicit params= configuration")
    relevant = {key: experiment_kwargs[key]
                for key in _VALIDATABLE_KWARGS
                if key in experiment_kwargs}
    report = verify_experiment(**relevant)
    if obs.enabled:
        obs.inc("campaign.validations")
        if report.has_errors:
            obs.inc("campaign.validation_failures")
    if report.has_errors:
        raise ConfigurationError(report)


def run_campaign(
    scheduler: str,
    seeds: Sequence[int],
    obs=NULL_OBS,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    validate: bool = False,
    store: Optional[str] = None,
    store_workload: str = "",
    _crash_plan: Optional[Mapping[int, int]] = None,
    **experiment_kwargs,
) -> CampaignResult:
    """Run one configuration across many seeds.

    Every metric of :data:`CAMPAIGN_METRICS` is summarized.

    Each seed gets :data:`SEED_ATTEMPTS` attempts.  An attempt fails
    when its run raises or, with ``workers``, when a worker process
    dies while the seed is pending on the pool: a death fails every
    seed the pool has not yet returned, and each of them is charged
    one attempt and resubmitted to a fresh pool.  A seed whose worker
    dies on every attempt (or that is lost with one) ends in
    :attr:`CampaignResult.failures` with ``attempts ==
    SEED_ATTEMPTS``; no death can block the campaign.

    Args:
        scheduler: Registry name.
        seeds: Seeds to run (each is one independent sample: workload
            jitter and fault pattern both re-drawn).
        obs: Parent observability context.  Every seed runs in its own
            isolated child context; the per-seed snapshots merge into
            ``obs`` in seed order when the campaign ends (so aggregate
            totals match what a shared context would have accumulated,
            while per-seed attribution stays exact via
            :attr:`CampaignResult.obs_snapshots`).  ``campaign.runs``
            records the sample count.
        workers: Fan seeds over this many spawned worker processes;
            ``None``/``0``/``1`` runs serially.  The workers belong to
            one pool per process: the first parallel campaign starts
            them, later campaigns with the same count reuse them, and
            they exit with the interpreter.  Results are merged in
            seed order either way, so the two modes produce identical
            summaries, counters, and deterministic exports.
        cache_dir: Content-addressed on-disk cache for completed seed
            runs; hits skip the simulation entirely.
        store: Path of the :class:`repro.results.store.ResultStore` the
            finished campaign is ingested into -- campaign row,
            per-seed runs, trace digests under the campaign's engine
            mode, and per-seed obs snapshots, all in one transaction.
            The assigned content-addressed id lands on
            :attr:`CampaignResult.store_campaign_id`.
        store_workload: Workload label recorded with the campaign (the
            store's faceting key; free-form).
        validate: Run the simulation-free invariant checks of
            :mod:`repro.verify` over the configuration *before* any
            seed executes; ERROR findings raise
            :class:`repro.verify.verifier.ConfigurationError` (carrying
            the full report) instead of burning seeds on a broken setup.
        _crash_plan: Test-only fault injection: ``{seed: n}`` makes the
            first ``n`` attempts of that seed raise (each attempt
            compares ``attempt < n``).
        **experiment_kwargs: Forwarded to
            :func:`repro.experiments.runner.run_experiment` (everything
            except ``scheduler`` and ``seed``).

    Returns:
        A :class:`CampaignResult` with per-metric summaries.

    Raises:
        ValueError: No seeds.
        repro.verify.verifier.ConfigurationError: ``validate=True`` and the
            configuration fails a static invariant check.
        RuntimeError: Every seed failed.
    """
    if not seeds:
        raise ValueError("campaign needs at least one seed")
    if validate:
        _validate_campaign(obs, **experiment_kwargs)

    collect_obs = obs.enabled
    cache = CampaignCache(cache_dir, obs=obs) if cache_dir else None
    crash_plan = dict(_crash_plan or {})

    outcomes: Dict[int, tuple] = {}
    cache_keys: Dict[int, str] = {}
    tasks: List[_SeedTask] = []
    for index, seed in enumerate(seeds):
        if cache is not None:
            key = cache.key_for(scheduler, seed, experiment_kwargs)
            cache_keys[index] = key
            entry = cache.load(key, need_obs=collect_obs)
            if entry is not None:
                outcomes[index] = ("cached", entry.result, entry.snapshot)
                continue
        tasks.append(_SeedTask(
            index=index, seed=seed, attempt=0, scheduler=scheduler,
            collect_obs=collect_obs,
            crash_attempts=crash_plan.get(seed, 0),
            experiment_kwargs=dict(experiment_kwargs),
        ))

    if tasks:
        if workers and workers > 1 and len(tasks) > 1:
            _run_parallel(tasks, workers, SEED_ATTEMPTS, outcomes)
        else:
            _run_serial(tasks, SEED_ATTEMPTS, outcomes)

    # Deterministic merge: walk the *input* seed order, never the
    # completion order.
    results: List[ExperimentResult] = []
    snapshots: List[ObsSnapshot] = []
    failures: List[CampaignFailure] = []
    cache_hits = simulations_run = 0
    for index, seed in enumerate(seeds):
        outcome = outcomes[index]
        kind = outcome[0]
        if kind == "failed":
            failures.append(CampaignFailure(
                seed=seed, attempts=outcome[2], error=outcome[1]))
            continue
        result, snapshot = outcome[1], outcome[2]
        if kind == "cached":
            cache_hits += 1
        else:
            simulations_run += 1
            if cache is not None:
                cache.store(cache_keys[index], result, snapshot)
        results.append(result)
        if snapshot is not None:
            snapshots.append(snapshot)
    if not results:
        detail = failures[0].error if failures else ""
        raise RuntimeError(
            f"campaign failed on every seed "
            f"{[failure.seed for failure in failures]}\n{detail}")

    if obs.enabled:
        for snapshot in snapshots:
            snapshot.apply_to(obs)
        obs.inc("campaign.runs", len(results))
        if cache_hits:
            obs.inc("campaign.cache_hits", cache_hits)
        if failures:
            obs.inc("campaign.seed_failures", len(failures))
        obs.emit("campaign.finished", scheduler=scheduler,
                 seeds=len(results))

    summaries = {
        name: _summarize(name, [extract(result) for result in results])
        for name, extract in _METRIC_EXTRACTORS.items()
    }
    campaign = CampaignResult(
        scheduler=scheduler, seeds=list(seeds), results=results,
        summaries=summaries, failures=failures,
        obs_snapshots=snapshots if collect_obs else [],
        cache_hits=cache_hits, simulations_run=simulations_run,
    )
    if store is not None:
        from repro.results.store import ResultStore

        with ResultStore(store, obs=obs) as opened:
            campaign.store_campaign_id = opened.record_campaign(
                campaign, experiment_kwargs, workload=store_workload)
    return campaign


def compare_campaigns(
    a: CampaignResult, b: CampaignResult, metric: str,
) -> Dict[str, object]:
    """Compare two campaigns on one metric.

    Returns:
        A dict with both means, the difference, and whether the 95 %
        CIs separate (a conservative significance check).
    """
    summary_a = a.summary(metric)
    summary_b = b.summary(metric)
    return {
        "metric": metric,
        a.scheduler: summary_a.mean,
        b.scheduler: summary_b.mean,
        "difference": summary_a.mean - summary_b.mean,
        "separated": not summary_a.overlaps(summary_b),
    }
