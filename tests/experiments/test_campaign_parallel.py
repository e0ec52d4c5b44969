"""Parallel campaigns: serial equivalence, retries, and the seed cache.

The contract under test: ``run_campaign(..., workers=N)`` must be an
implementation detail -- summaries, counters, and deterministic JSONL
records are bit-identical to the serial run over the same seeds; a
crashing seed is retried once and then surfaced instead of killing the
campaign; and a warm content-addressed cache serves every seed without
simulating anything.

The parallel tests spawn real worker processes, so they use the tiny
fixture workload and short horizons to keep wall-clock sane.  The
worker pool is shared by every parallel campaign of a process, so these
tests also pin what that sharing must not change: a campaign's results
do not depend on the campaigns that ran before it on the same workers,
a dead worker costs its seeds one attempt instead of blocking the
campaign, and no worker outlives its process.
"""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from typing import NamedTuple

import pytest

from repro.experiments import campaign as campaign_module
from repro.experiments.cache import CampaignCache, cache_key
from repro.experiments.campaign import SEED_ATTEMPTS, run_campaign
from repro.obs.export import attach_event_capture, snapshot_records
from repro.obs.observability import Observability

_SEEDS = [1, 2, 3, 4]

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@dataclasses.dataclass(frozen=True, slots=True)
class _Reshaped:
    """A cached class before a release turns it into a named tuple."""

    value: int


class _ReshapedTuple(NamedTuple):
    value: int


class _WorkerDeath:
    """A ``_crash_plan`` entry that kills the worker process running it.

    ``run_campaign`` injects a crash when ``attempt < entry``; Python
    answers that comparison through this object's ``__gt__``, which
    ends the process with ``os._exit`` on the first ``attempts``
    attempts: a real worker death, not an exception.  ``delay_s`` lets
    the other seeds finish first.  Outside a worker process (the test
    process itself, a serial run) it never fires.
    """

    def __init__(self, attempts: int, delay_s: float = 0.0) -> None:
        self.attempts = attempts
        self.delay_s = delay_s

    def __gt__(self, attempt: int) -> bool:
        if (attempt < self.attempts
                and multiprocessing.parent_process() is not None):
            time.sleep(self.delay_s)
            os._exit(1)
        return False


def _within(seconds, call):
    """``call()``, failing the test if it is still blocked after ``seconds``."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as error:  # re-raised in the test thread
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"campaign still blocked after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _campaign(small_params, workload, obs=None, **overrides):
    kwargs = dict(
        params=small_params,
        periodic=workload.periodic(),
        aperiodic=workload.aperiodic(),
        ber=1e-4,
        duration_ms=20.0,
    )
    kwargs.update(overrides)
    if obs is not None:
        kwargs["obs"] = obs
    return run_campaign("coefficient", seeds=list(_SEEDS), **kwargs)


def _deterministic_records(obs, events):
    """The JSONL export minus wall-clock records (profile sections)."""
    return [record for record in snapshot_records(obs, events=events)
            if record["record"] in ("counter", "gauge", "event")]


class TestParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self, small_params,
                                                 tiny_workload):
        obs_serial, obs_parallel = Observability(), Observability()
        events_serial = attach_event_capture(obs_serial)
        events_parallel = attach_event_capture(obs_parallel)

        serial = _campaign(small_params, tiny_workload, obs=obs_serial)
        parallel = _campaign(small_params, tiny_workload, obs=obs_parallel,
                             workers=2)

        # MetricSummary is a frozen dataclass of floats computed from
        # pickled-intact values: equality here is bit-identity.
        assert serial.summaries == parallel.summaries
        assert [r.metrics for r in serial.results] \
            == [r.metrics for r in parallel.results]
        assert [r.counters for r in serial.results] \
            == [r.counters for r in parallel.results]
        assert [r.cycles_run for r in serial.results] \
            == [r.cycles_run for r in parallel.results]

        # Aggregated observability: counters, gauges, and the replayed
        # hook events all match; only wall-clock profile sections may
        # differ.
        assert (obs_serial.deterministic_snapshot()
                == obs_parallel.deterministic_snapshot())
        assert _deterministic_records(obs_serial, events_serial) \
            == _deterministic_records(obs_parallel, events_parallel)

    def test_per_seed_snapshots_attribute_counters(self, small_params,
                                                   tiny_workload):
        obs = Observability()
        campaign = _campaign(small_params, tiny_workload, obs=obs,
                             workers=2)
        assert len(campaign.obs_snapshots) == len(_SEEDS)
        total = sum(snapshot.counters.get("engine.cycles", 0)
                    for snapshot in campaign.obs_snapshots)
        aggregate = obs.deterministic_snapshot()["counters"]
        assert total == aggregate["engine.cycles"]
        # Every per-seed snapshot carries its own engine activity.
        for snapshot in campaign.obs_snapshots:
            assert snapshot.counters.get("engine.cycles", 0) > 0

    def test_successive_campaigns_do_not_leak_into_snapshots(
            self, small_params, tiny_workload):
        obs = Observability()
        first = _campaign(small_params, tiny_workload, obs=obs)
        second = _campaign(small_params, tiny_workload, obs=obs)
        # Parent totals accumulate (documented), but per-seed snapshots
        # stay attributable: campaign two's per-seed counters equal
        # campaign one's, not twice them.
        assert [s.counters for s in first.obs_snapshots] \
            == [s.counters for s in second.obs_snapshots]
        aggregate = obs.deterministic_snapshot()["counters"]
        assert aggregate["campaign.runs"] == 2 * len(_SEEDS)


class TestWorkerCrashes:
    def test_crashed_seed_is_retried_and_recovers(self, small_params,
                                                  tiny_workload):
        clean = _campaign(small_params, tiny_workload)
        for workers in (None, 2):
            crashed = _campaign(small_params, tiny_workload, workers=workers,
                                _crash_plan={2: 1})
            assert crashed.failures == []
            assert crashed.summaries == clean.summaries

    def test_seed_failing_after_retry_is_surfaced(self, small_params,
                                                  tiny_workload):
        for workers in (None, 2):
            campaign = _campaign(small_params, tiny_workload,
                                 workers=workers, _crash_plan={2: 2})
            assert [f.seed for f in campaign.failures] == [2]
            assert campaign.failures[0].attempts == 2
            assert "injected crash" in campaign.failures[0].error
            assert campaign.completed_seeds == [1, 3, 4]
            assert len(campaign.results) == 3
            for summary in campaign.summaries.values():
                assert summary.samples == 3

    def test_all_seeds_failing_raises(self, small_params, tiny_workload):
        with pytest.raises(RuntimeError, match="every seed"):
            run_campaign("coefficient", seeds=[5],
                         params=small_params,
                         periodic=tiny_workload.periodic(),
                         ber=0.0, duration_ms=10.0,
                         _crash_plan={5: 2})


class TestWorkerDeath:
    def test_one_worker_death_is_retried_and_matches_serial(
            self, small_params, tiny_workload):
        obs_serial, obs_parallel = Observability(), Observability()
        serial = _campaign(small_params, tiny_workload, obs=obs_serial)
        parallel = _within(90, lambda: _campaign(
            small_params, tiny_workload, obs=obs_parallel, workers=2,
            _crash_plan={2: _WorkerDeath(1)}))
        assert parallel.failures == []
        assert parallel.summaries == serial.summaries
        assert [r.metrics for r in parallel.results] \
            == [r.metrics for r in serial.results]
        assert (obs_parallel.deterministic_snapshot()
                == obs_serial.deterministic_snapshot())

    def test_seed_whose_worker_always_dies_is_surfaced(
            self, small_params, tiny_workload):
        serial = _campaign(small_params, tiny_workload)
        campaign = _within(120, lambda: _campaign(
            small_params, tiny_workload, workers=2,
            _crash_plan={4: _WorkerDeath(SEED_ATTEMPTS, delay_s=1.0)}))
        assert [f.seed for f in campaign.failures] == [4]
        assert campaign.failures[0].attempts == SEED_ATTEMPTS
        assert "BrokenProcessPool" in campaign.failures[0].error
        assert campaign.completed_seeds == [1, 2, 3]
        assert [r.metrics for r in campaign.results] \
            == [r.metrics for r in serial.results[:3]]


class TestSharedPool:
    def test_campaigns_on_reused_workers_match_serial(self, small_params,
                                                      tiny_workload):
        def campaign_a(obs, **kwargs):
            return _campaign(small_params, tiny_workload, obs=obs, **kwargs)

        def campaign_b(obs, **kwargs):
            return run_campaign(
                "fspec", seeds=[7, 8, 9], params=small_params,
                periodic=tiny_workload.periodic(), ber=1e-3,
                duration_ms=30.0, obs=obs, **kwargs)

        def observed(make, **kwargs):
            obs = Observability()
            events = attach_event_capture(obs)
            campaign = make(obs, **kwargs)
            return (campaign, obs.deterministic_snapshot(),
                    _deterministic_records(obs, events))

        serial_a = observed(campaign_a)
        serial_b = observed(campaign_b)
        runs, pools = [], []
        for make in (campaign_a, campaign_b, campaign_a):
            runs.append(observed(make, workers=2))
            pools.append(campaign_module._pool)
        assert pools[0] is pools[1] is pools[2]
        for campaign, counters, records in (runs[0], runs[2]):
            assert campaign.summaries == serial_a[0].summaries
            assert counters == serial_a[1]
            assert records == serial_a[2]
        assert runs[1][0].summaries == serial_b[0].summaries
        assert runs[1][1] == serial_b[1]

    def test_a_new_worker_count_rebuilds_the_pool(self, small_params,
                                                  tiny_workload):
        _campaign(small_params, tiny_workload, workers=2)
        first = campaign_module._pool
        old_workers = {child.pid for child in multiprocessing.active_children()}
        _campaign(small_params, tiny_workload, workers=2)
        assert campaign_module._pool is first
        _campaign(small_params, tiny_workload, workers=3)
        assert campaign_module._pool is not first
        assert campaign_module._pool[0] == 3
        live = {child.pid for child in multiprocessing.active_children()}
        assert old_workers and not old_workers & live

    def test_no_worker_outlives_its_process(self):
        script = textwrap.dedent("""
            import multiprocessing
            from repro import cli
            assert cli.main(["campaign", "--workload", "synthetic",
                             "--count", "6", "--seeds", "3",
                             "--duration-ms", "30", "--aperiodic", "0",
                             "--workers", "2", "--json"]) == 0
            print(*[child.pid for child in multiprocessing.active_children()])
            """)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=_SRC), timeout=120)
        assert done.returncode == 0, done.stderr
        workers = [int(pid) for pid in done.stdout.splitlines()[-1].split()]
        assert workers  # the pool was still up when the script ended
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestSeedCache:
    def _kwargs(self, small_params, workload, **overrides):
        kwargs = dict(
            params=small_params,
            periodic=workload.periodic(),
            aperiodic=workload.aperiodic(),
            ber=1e-4,
            duration_ms=20.0,
        )
        kwargs.update(overrides)
        return kwargs

    def test_warm_cache_runs_zero_simulations(self, small_params,
                                              tiny_workload, tmp_path):
        kwargs = self._kwargs(small_params, tiny_workload,
                              cache_dir=str(tmp_path))
        obs_cold, obs_warm = Observability(), Observability()
        cold = run_campaign("coefficient", seeds=list(_SEEDS),
                            obs=obs_cold, **kwargs)
        warm = run_campaign("coefficient", seeds=list(_SEEDS),
                            obs=obs_warm, **kwargs)
        assert cold.simulations_run == len(_SEEDS)
        assert cold.cache_hits == 0
        assert warm.simulations_run == 0
        assert warm.cache_hits == len(_SEEDS)
        assert warm.summaries == cold.summaries
        # A warm campaign merges the *stored* per-seed snapshots, so
        # the deterministic aggregate is unchanged (bar campaign.cache_hits).
        cold_counters = dict(
            obs_cold.deterministic_snapshot()["counters"])
        warm_counters = dict(
            obs_warm.deterministic_snapshot()["counters"])
        warm_counters.pop("campaign.cache_hits")
        assert warm_counters == cold_counters

    def test_changed_configuration_misses(self, small_params,
                                          tiny_workload, tmp_path):
        kwargs = self._kwargs(small_params, tiny_workload,
                              cache_dir=str(tmp_path))
        run_campaign("coefficient", seeds=list(_SEEDS), **kwargs)
        changed = run_campaign(
            "coefficient", seeds=list(_SEEDS),
            **{**kwargs, "ber": 2e-4})
        assert changed.cache_hits == 0
        assert changed.simulations_run == len(_SEEDS)

    def test_unobserved_entry_cannot_serve_observed_campaign(
            self, small_params, tiny_workload, tmp_path):
        kwargs = self._kwargs(small_params, tiny_workload,
                              cache_dir=str(tmp_path))
        run_campaign("coefficient", seeds=[1, 2], **kwargs)
        observed = run_campaign("coefficient", seeds=[1, 2],
                                obs=Observability(), **kwargs)
        # Entries without obs snapshots read as misses for an observed
        # campaign -- otherwise its counters would silently vanish.
        assert observed.cache_hits == 0
        assert observed.simulations_run == 2
        # ... and the re-simulation upgraded the entries in place.
        warm = run_campaign("coefficient", seeds=[1, 2],
                            obs=Observability(), **kwargs)
        assert warm.cache_hits == 2

    def test_corrupt_entry_is_a_miss(self, small_params, tiny_workload,
                                     tmp_path):
        kwargs = self._kwargs(small_params, tiny_workload)
        key = cache_key("coefficient", 1, kwargs)
        cache = CampaignCache(str(tmp_path))
        path = cache.path_for(key)
        import os
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"torn write, not a pickle")
        campaign = run_campaign("coefficient", seeds=[1],
                                cache_dir=str(tmp_path), **kwargs)
        assert campaign.cache_hits == 0
        assert campaign.simulations_run == 1

    def test_reshaped_class_entry_is_a_miss(self, small_params,
                                            tiny_workload, tmp_path,
                                            monkeypatch):
        # An entry pickled while a cached class was a slots dataclass
        # cannot be rebuilt once the class is a named tuple: unpickling
        # raises TypeError, which must read as a corrupt miss.
        kwargs = self._kwargs(small_params, tiny_workload)
        key = cache_key("coefficient", 1, kwargs)
        CampaignCache(str(tmp_path)).store(key, _Reshaped(1), None)
        monkeypatch.setattr(sys.modules[__name__], "_Reshaped",
                            _ReshapedTuple)
        obs = Observability()
        with pytest.warns(RuntimeWarning, match="TypeError"):
            campaign = run_campaign("coefficient", seeds=[1],
                                    cache_dir=str(tmp_path), obs=obs,
                                    **kwargs)
        assert campaign.cache_hits == 0
        assert campaign.simulations_run == 1
        assert campaign.completed_seeds == [1]
        assert obs.deterministic_snapshot()["counters"][
            "cache.corrupt_entries"] == 1

    def test_key_is_stable_and_sensitive(self, small_params,
                                         tiny_workload):
        kwargs = self._kwargs(small_params, tiny_workload)
        assert cache_key("coefficient", 1, kwargs) \
            == cache_key("coefficient", 1, dict(kwargs))
        assert cache_key("coefficient", 1, kwargs) \
            != cache_key("coefficient", 2, kwargs)
        assert cache_key("coefficient", 1, kwargs) \
            != cache_key("fspec", 1, kwargs)
        assert cache_key("coefficient", 1, kwargs) \
            != cache_key("coefficient", 1,
                         {**kwargs, "duration_ms": 21.0})


class TestCampaignCli:
    def test_cli_campaign_parallel_matches_serial(self, tmp_path, capsys):
        from repro import cli

        argv = ["campaign", "--workload", "synthetic", "--count", "6",
                "--seeds", "3", "--duration-ms", "30",
                "--scheduler", "coefficient", "--aperiodic", "0",
                "--json"]
        assert cli.main(argv) == 0
        serial_out = capsys.readouterr().out
        assert cli.main(argv + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_cli_campaign_cache_dir(self, tmp_path, capsys):
        import json

        from repro import cli

        argv = ["campaign", "--workload", "synthetic", "--count", "6",
                "--seeds", "2", "--duration-ms", "30",
                "--scheduler", "coefficient", "--aperiodic", "0",
                "--cache-dir", str(tmp_path / "cache"), "--json"]
        assert cli.main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first[0]["simulated"] == 2
        assert second[0]["simulated"] == 0
        assert second[0]["cache_hits"] == 2
        for row_a, row_b in zip(first, second):
            assert {k: v for k, v in row_a.items()
                    if k not in ("cache_hits", "simulated")} \
                == {k: v for k, v in row_b.items()
                    if k not in ("cache_hits", "simulated")}
