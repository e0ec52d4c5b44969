"""Coordinated campaigns: byte-identical to the serial path.

The crash tests launch real worker processes through ``repro campaign
--coordinate`` (never from a heredoc/stdin ``__main__`` -- spawn must
be able to re-import the entry point).  A kamikaze worker SIGKILLs
itself via the ``REPRO_COORD_KILL_AFTER_SEEDS`` hook, and only after
it is dead do the survivors start, so they must take over the lease it
left behind.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys

import pytest

from repro.distrib import coordinator
from repro.distrib.coordinator import (
    KILL_AFTER_SEEDS_ENV,
    coordinate_campaign,
    reduce_campaign,
    run_worker,
)
from repro.distrib.plan import CampaignPlan
from repro.experiments.campaign import run_campaign

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def small_plan(**overrides):
    base = dict(
        scheduler="coefficient", workload="synthetic", count=6,
        seed=42, seeds=(42, 43, 44), aperiodic=0, minislots=100,
        ber=1e-7, reliability_goal=1 - 1e-4, duration_ms=30.0,
        chunk=1)
    base.update(overrides)
    return CampaignPlan(**base)


def serial_reference(plan):
    return run_campaign(plan.scheduler, list(plan.seeds),
                        **plan.experiment_kwargs())


def assert_campaigns_identical(coordinated, serial):
    assert coordinated.seeds == serial.seeds
    assert coordinated.failures == serial.failures
    assert len(coordinated.results) == len(serial.results)
    for mine, theirs in zip(coordinated.results, serial.results):
        assert mine.metrics == theirs.metrics
        assert mine.cycles_run == theirs.cycles_run
    assert set(coordinated.summaries) == set(serial.summaries)
    for metric, summary in serial.summaries.items():
        assert coordinated.summaries[metric] == summary


def run_rows(db_path):
    with sqlite3.connect(db_path) as connection:
        return sorted(connection.execute(
            "SELECT id, scheduler, seed, payload FROM runs").fetchall())


def spawn_cli_worker(directory, *extra, env_overrides=None,
                     seeds=3, chunk=1):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(env_overrides or {})
    command = [
        sys.executable, "-m", "repro.cli", "campaign",
        "--workload", "synthetic", "--count", "6", "--seed", "42",
        "--seeds", str(seeds), "--duration-ms", "30.0",
        "--aperiodic", "0", "--scheduler", "coefficient",
        "--chunk", str(chunk), "--coordinate", directory, *extra]
    return subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def kill_a_worker_mid_campaign(directory, chunk):
    """Publish the plan and let a kamikaze die holding its first range.

    The kamikaze SIGKILLs itself after publishing one seed: with
    ``chunk=1`` that seed finished its range (done marker unwritten),
    with ``chunk=2`` it dies mid-range.  Either way one lease file is
    left behind, unlocked.
    """
    plan = small_plan(chunk=chunk)
    plan.publish(directory)
    kamikaze = spawn_cli_worker(
        directory, "--join", "--worker-id", "kamikaze", chunk=chunk,
        env_overrides={KILL_AFTER_SEEDS_ENV: "1"})
    try:
        kamikaze.communicate(timeout=120)
    finally:
        kamikaze.kill()
    assert kamikaze.returncode == -signal.SIGKILL  # died by its own hook
    assert len(os.listdir(os.path.join(directory, "leases"))) == 1
    return plan


def assert_one_takeover(reports):
    """The survivors took the dead range over and resumed from cache."""
    total = {key: sum(report[key] for report in reports)
             for key in ("takeovers", "seeds_simulated", "cache_hits")}
    assert total == {"takeovers": 1, "seeds_simulated": 2,
                     "cache_hits": 1}


class TestSingleWorker:
    def test_matches_serial_run(self, tmp_path):
        plan = small_plan()
        campaign, report = coordinate_campaign(
            str(tmp_path), plan=plan, worker_id="solo")
        assert report.ranges_completed == 3
        assert report.seeds_simulated == 3
        assert_campaigns_identical(campaign, serial_reference(plan))
        # The reduce itself ran entirely off the shared cache.
        assert campaign.cache_hits == 3
        assert campaign.simulations_run == 0

    def test_rerun_converges_from_cache(self, tmp_path):
        plan = small_plan()
        first, __ = coordinate_campaign(
            str(tmp_path), plan=plan, worker_id="solo")
        again, report = coordinate_campaign(
            str(tmp_path), plan=plan, worker_id="solo-2")
        assert report.seeds_simulated == 0
        assert report.ranges_completed == 0  # done markers skip all
        assert_campaigns_identical(again, first)

    def test_store_rows_match_serial_store(self, tmp_path):
        plan = small_plan()
        coordinate_campaign(str(tmp_path / "coord"), plan=plan,
                            worker_id="solo")
        serial_db = str(tmp_path / "serial.db")
        run_campaign(plan.scheduler, list(plan.seeds), store=serial_db,
                     store_workload=plan.workload,
                     **plan.experiment_kwargs())
        coordinated = run_rows(str(tmp_path / "coord" / "results.db"))
        serial = run_rows(serial_db)
        assert coordinated == serial
        assert len(coordinated) == 3


class TestEngineDivergentJoiner:
    def test_joiner_with_other_engine_never_double_claims(self,
                                                          tmp_path):
        directory = str(tmp_path)
        plan = small_plan()
        coordinate_campaign(directory, plan=plan, worker_id="vectorized")
        # A trace-equivalent joiner arrives late with a different
        # engine: identical claim names mean every range shows done
        # and it contributes nothing (the double-claim regression).
        joiner_plan = small_plan(engine_mode="interpreter")
        report = run_worker(joiner_plan.publish(directory), directory,
                            "late-joiner")
        assert report.ranges_completed == 0
        assert report.seeds_simulated == 0
        assert report.takeovers == 0


class TestMultiWorkerCrash:
    def check_reclaimed(self, directory, chunk):
        plan = kill_a_worker_mid_campaign(directory, chunk)
        helper = spawn_cli_worker(directory, "--join", "--worker-id",
                                  "helper", "--json", chunk=chunk)
        try:
            campaign, report = coordinate_campaign(
                directory, plan=plan, worker_id="boss", timeout_s=120.0)
            helper_out, helper_err = helper.communicate(timeout=120)
        finally:
            helper.kill()
        assert helper.returncode == 0, helper_err
        assert_one_takeover([report.row(), json.loads(helper_out)[0]])
        assert_campaigns_identical(campaign, serial_reference(plan))
        done = os.listdir(os.path.join(directory, "done"))
        assert len(done) == len(plan.ranges())
        assert os.listdir(os.path.join(directory, "leases")) == []

    def check_store_converges(self, tmp_path, chunk):
        directory = str(tmp_path / "coord")
        plan = kill_a_worker_mid_campaign(directory, chunk)
        __, report = coordinate_campaign(directory, plan=plan,
                                         worker_id="boss", timeout_s=120.0)
        assert_one_takeover([report.row()])
        serial_db = str(tmp_path / "serial.db")
        run_campaign(plan.scheduler, list(plan.seeds), store=serial_db,
                     store_workload=plan.workload,
                     **plan.experiment_kwargs())
        assert run_rows(os.path.join(directory, "results.db")) \
            == run_rows(serial_db)

    def test_sigkilled_worker_is_reclaimed(self, tmp_path):
        self.check_reclaimed(str(tmp_path), chunk=1)

    def test_worker_sigkilled_mid_range_is_resumed(self, tmp_path):
        self.check_reclaimed(str(tmp_path), chunk=2)

    def test_store_converges_despite_crash(self, tmp_path):
        self.check_store_converges(tmp_path, chunk=1)

    def test_store_converges_despite_crash_mid_range(self, tmp_path):
        self.check_store_converges(tmp_path, chunk=2)


class TestReducer:
    def test_reduce_fills_missing_seeds(self, tmp_path):
        # A seed nobody published (crash before any publish) is simply
        # simulated by the reducer; correctness never waits on worker
        # health.
        directory = str(tmp_path)
        plan = small_plan()
        plan.publish(directory)
        campaign = reduce_campaign(plan, directory)
        assert campaign.simulations_run == 3
        assert_campaigns_identical(campaign, serial_reference(plan))


class TestErrors:
    def test_plainless_non_joiner_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="needs a plan"):
            coordinate_campaign(str(tmp_path))

    def test_joiner_times_out_without_plan(self, tmp_path, monkeypatch):
        monkeypatch.setattr(coordinator, "PLAN_WAIT_S", 0.3)
        monkeypatch.setattr(coordinator, "POLL_S", 0.1)
        with pytest.raises(FileNotFoundError, match="plan.json"):
            coordinate_campaign(str(tmp_path), join=True)
