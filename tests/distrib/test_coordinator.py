"""Coordinated campaigns: byte-identical to the serial path.

The crash tests launch real worker processes through ``repro campaign
--coordinate`` (never from a heredoc/stdin ``__main__`` -- spawn must
be able to re-import the entry point) and SIGKILL one mid-run via the
``REPRO_COORD_KILL_AFTER_SEEDS`` hook.
"""

import os
import sqlite3
import subprocess
import sys

import pytest

from repro.distrib.coordinator import (
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
        "--chunk", str(chunk), "--heartbeat-s", "0.2",
        "--stale-after-s", "1.0", "--coordinate", directory, *extra]
    return subprocess.Popen(command, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


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
    def test_sigkilled_worker_is_reclaimed(self, tmp_path):
        directory = str(tmp_path)
        plan = small_plan()
        plan.publish(directory)
        # One worker kills itself -- hard -- after its first completed
        # seed; a healthy joiner and this process finish the campaign.
        kamikaze = spawn_cli_worker(
            directory, "--join", "--worker-id", "kamikaze",
            env_overrides={"REPRO_COORD_KILL_AFTER_SEEDS": "1"})
        helper = spawn_cli_worker(
            directory, "--join", "--worker-id", "helper")
        try:
            campaign, report = coordinate_campaign(
                directory, plan=plan, worker_id="boss",
                heartbeat_s=0.2, stale_after_s=1.0, timeout_s=120.0)
        finally:
            kamikaze.kill()
            helper_err = ""
            try:
                __, helper_err = helper.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                helper.kill()
        assert kamikaze.wait(timeout=60) == -9  # died by SIGKILL
        assert "coordination failed" not in (helper_err or "")
        assert_campaigns_identical(campaign, serial_reference(plan))
        done = os.listdir(os.path.join(directory, "done"))
        assert len(done) == 3
        # The kamikaze's lease was reclaimed by somebody (it held the
        # range it was killed inside); no lease files survive.
        assert os.listdir(os.path.join(directory, "leases")) == []

    def test_store_converges_despite_crash(self, tmp_path):
        directory = str(tmp_path / "coord")
        os.makedirs(directory)
        plan = small_plan()
        plan.publish(directory)
        kamikaze = spawn_cli_worker(
            directory, "--join", "--worker-id", "kamikaze",
            env_overrides={"REPRO_COORD_KILL_AFTER_SEEDS": "1"})
        try:
            coordinate_campaign(directory, plan=plan, worker_id="boss",
                                heartbeat_s=0.2, stale_after_s=1.0,
                                timeout_s=120.0)
        finally:
            kamikaze.kill()
        serial_db = str(tmp_path / "serial.db")
        run_campaign(plan.scheduler, list(plan.seeds), store=serial_db,
                     store_workload=plan.workload,
                     **plan.experiment_kwargs())
        assert run_rows(os.path.join(directory, "results.db")) \
            == run_rows(serial_db)


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

    def test_joiner_times_out_without_plan(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="plan.json"):
            coordinate_campaign(str(tmp_path), join=True,
                                plan_wait_s=0.3, poll_s=0.1)
