"""Multi-process campaign coordination over a shared directory.

Protocol (everything under one coordination directory)::

    plan.json      the agreed spec (plan.py; first link wins)
    leases/        per-range lease files (lease.py; held by flock)
    cache/         content-addressed seed cache (experiments/cache.py)
    done/          per-range done markers (atomic temp+replace)
    results.db     shared SQLite result store (idempotent ingest)

Workers scan the plan's seed ranges in order: a range with a done
marker is finished, a range whose lease is locked is someone else's,
anything else gets claimed -- including the lease a crashed worker
left behind, whose lock the kernel dropped when it died.  A claimed
range runs seed by seed through the exact
:func:`repro.experiments.campaign._execute_seed` path the in-process
pool uses, publishing each completed seed into the shared cache (and
its run row into the shared store) *before* the range's done marker is
written -- so a worker SIGKILLed mid-range loses only its unpublished
seeds, and its successor resumes from the cache.

The reducer is deliberately boring: once every range is done, it calls
:func:`repro.experiments.campaign.run_campaign` over the warm cache.
Every seed hits, zero simulations run, and the merge is the same
seed-ordered deterministic merge the serial path uses -- byte-identical
results by construction, not by re-implementation.

A worker may join with a different (trace-equivalent) engine mode than
the plan's.  Claims are engine-independent (see
:meth:`repro.distrib.plan.CampaignPlan.range_claims`), so it never
double-claims; its cache entries live under its own engine's key
(cache keys include the engine mode by design), while its store rows
converge onto the same engine-free run ids.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import tempfile
import time
from typing import Dict, Optional, Tuple

from repro.distrib.lease import LeaseDirectory
from repro.distrib.plan import CampaignPlan
from repro.experiments.cache import CampaignCache
from repro.experiments.campaign import (
    CampaignResult,
    _execute_seed,
    _SeedTask,
    run_campaign,
)
from repro.obs import NULL_OBS, ObsLike

__all__ = ["KILL_AFTER_SEEDS_ENV", "WorkerReport", "coordinate_campaign",
           "reduce_campaign", "run_worker"]

#: Crash-injection hook: when set to N, the worker SIGKILLs itself
#: after completing N seeds -- a *real* hard kill (no cleanup, no
#: lease release), which is exactly what the takeover tests need.
KILL_AFTER_SEEDS_ENV = "REPRO_COORD_KILL_AFTER_SEEDS"

CACHE_DIRNAME = "cache"
LEASES_DIRNAME = "leases"
DONE_DIRNAME = "done"
RESULTS_DBNAME = "results.db"

#: Seconds between scans while every unfinished range is leased to
#: someone else, and between a plan-less joiner's looks for plan.json.
POLL_S = 0.25

#: Seconds a plan-less joiner waits for plan.json.
PLAN_WAIT_S = 30.0


@dataclasses.dataclass
class WorkerReport:
    """What one worker process contributed to a coordinated campaign."""

    worker_id: str
    ranges_completed: int = 0
    seeds_simulated: int = 0
    cache_hits: int = 0
    takeovers: int = 0

    def row(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def _done_path(directory: str, claim: str) -> str:
    return os.path.join(directory, DONE_DIRNAME, f"{claim}.json")


def _write_done(directory: str, claim: str, index: int,
                seeds: Tuple[int, ...], worker_id: str) -> None:
    """Atomically publish one range's done marker (temp + replace)."""
    path = _done_path(directory, claim)
    payload = {"claim": claim, "range": index, "seeds": list(seeds),
               "worker": worker_id}
    fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                     suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def run_worker(plan: CampaignPlan, directory: str, worker_id: str,
               timeout_s: Optional[float] = None,
               obs: ObsLike = NULL_OBS) -> WorkerReport:
    """Claim, run and publish seed ranges until none remain.

    Returns when every range of the plan has a done marker.  Raises
    :class:`TimeoutError` when ``timeout_s`` elapses with unfinished
    ranges this worker cannot claim (held by someone else who never
    finishes); between scans it sleeps :data:`POLL_S`.
    """
    kwargs = plan.experiment_kwargs()
    cache = CampaignCache(os.path.join(directory, CACHE_DIRNAME), obs=obs)
    os.makedirs(os.path.join(directory, DONE_DIRNAME), exist_ok=True)
    claims = plan.range_claims()
    report = WorkerReport(worker_id=worker_id)
    kill_after_text = os.environ.get(KILL_AFTER_SEEDS_ENV)
    kill_after = int(kill_after_text) if kill_after_text else None
    seeds_done = 0
    deadline = (time.monotonic() + timeout_s
                if timeout_s is not None else None)

    from repro.results import ResultStore

    store = ResultStore(os.path.join(directory, RESULTS_DBNAME), obs=obs)
    leases = LeaseDirectory(os.path.join(directory, LEASES_DIRNAME),
                            worker_id)
    try:
        while True:
            progress = False
            remaining = 0
            for claim, index, seeds in claims:
                if os.path.exists(_done_path(directory, claim)):
                    continue
                remaining += 1
                if not leases.acquire(claim):
                    continue
                if os.path.exists(_done_path(directory, claim)):
                    # Finished and released by another worker since
                    # the check above; nothing left to do here.
                    leases.release(claim)
                    continue
                progress = True
                try:
                    for seed in seeds:
                        key = cache.key_for(plan.scheduler, seed, kwargs)
                        entry = cache.load(key, need_obs=True)
                        if entry is None:
                            result, snapshot = _execute_seed(
                                _SeedTask(
                                    index=index, seed=seed, attempt=0,
                                    scheduler=plan.scheduler,
                                    collect_obs=True, crash_attempts=0,
                                    experiment_kwargs=dict(kwargs)))
                            cache.store(key, result, snapshot)
                            report.seeds_simulated += 1
                        else:
                            result = entry.result
                            report.cache_hits += 1
                        store.record_run(result, seed, kwargs)
                        seeds_done += 1
                        if (kill_after is not None
                                and seeds_done >= kill_after):
                            os.kill(os.getpid(), signal.SIGKILL)
                    _write_done(directory, claim, index, seeds, worker_id)
                    report.ranges_completed += 1
                finally:
                    leases.release(claim)
            if remaining == 0:
                break
            if not progress:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"worker {worker_id}: {remaining} ranges still "
                        f"unfinished after {timeout_s}s")
                time.sleep(POLL_S)
    finally:
        store.close()
    report.takeovers = leases.takeovers
    return report


def reduce_campaign(plan: CampaignPlan, directory: str,
                    obs: ObsLike = NULL_OBS) -> CampaignResult:
    """Deterministic reduce: a warm-cache ``run_campaign`` over DIR.

    Every completed seed cache-hits, so this runs zero simulations and
    performs exactly the seed-ordered merge the serial path performs --
    summaries, counters and snapshots byte-identical to
    ``run_campaign(workers=1)`` on the same plan.  A seed missing from
    the cache (worker crashed before publishing and nobody resumed) is
    simply simulated here; correctness never depends on worker health.
    """
    kwargs = plan.experiment_kwargs()
    return run_campaign(
        plan.scheduler, list(plan.seeds), obs=obs,
        cache_dir=os.path.join(directory, CACHE_DIRNAME),
        store=os.path.join(directory, RESULTS_DBNAME),
        store_workload=plan.workload,
        **kwargs)


def coordinate_campaign(directory: str,
                        plan: Optional[CampaignPlan] = None,
                        join: bool = False,
                        worker_id: Optional[str] = None,
                        timeout_s: Optional[float] = None,
                        obs: ObsLike = NULL_OBS,
                        ) -> Tuple[Optional[CampaignResult], WorkerReport]:
    """Run one coordinated-campaign participant to completion.

    Args:
        directory: The shared coordination directory.
        plan: This participant's spec.  Required unless joining; a
            joiner passing its own spec must match the published plan
            (modulo engine mode).
        join: Join an existing campaign as an extra worker: contribute
            until no ranges remain, then return *without* reducing
            (the coordinating process reduces).
        worker_id: Stable identity for leases (default: host-pid).
        timeout_s: Give up after this long without claimable work, see
            :func:`run_worker`.  A plan-less joiner waits
            :data:`PLAN_WAIT_S` for ``plan.json``.
        obs: Observability context (reducer side).

    Returns:
        ``(campaign, report)`` -- ``campaign`` is ``None`` for joiners.

    Re-running the coordinator over a finished (or crashed) directory
    converges: done ranges are skipped, missing seeds re-run, and the
    reduce is repeatable (cache hits all the way down).
    """
    if worker_id is None:
        import socket

        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    if plan is not None:
        plan = plan.publish(directory)
    elif join:
        waited = 0.0
        while not os.path.exists(CampaignPlan.path_in(directory)):
            if waited >= PLAN_WAIT_S:
                raise FileNotFoundError(
                    f"no {CampaignPlan.path_in(directory)} after "
                    f"{PLAN_WAIT_S}s; is the coordinating process up?")
            time.sleep(POLL_S)
            waited += POLL_S
        plan = CampaignPlan.load(directory)
    else:
        raise ValueError("coordinate_campaign needs a plan unless "
                         "joining an existing campaign")

    report = run_worker(plan, directory, worker_id, timeout_s=timeout_s,
                        obs=obs)
    if join:
        return None, report
    return reduce_campaign(plan, directory, obs=obs), report
