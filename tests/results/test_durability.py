"""Crash and concurrency durability: kill -9 never tears an artifact.

Each scenario runs the dangerous part in a real child process (not a
thread) so ``SIGKILL`` is genuine: the child gets no chance to run
``finally`` blocks, flush buffers, or roll anything back.  The parent
then inspects what the filesystem actually holds.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.obs import Observability, read_metrics_jsonl, write_metrics_jsonl
from repro.results import ResultStore

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _run_child(code: str, **env_extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC, **env_extra)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


class TestStoreCrashSafety:
    def test_sigkill_mid_transaction_leaves_no_rows(self, tmp_path):
        db = tmp_path / "crash.db"
        # The child opens a write transaction, inserts into several
        # tables, then SIGKILLs itself before COMMIT ever runs.
        child = _run_child(f"""
            import os, signal
            from repro.results import ResultStore

            store = ResultStore({str(db)!r})
            store._conn.execute("BEGIN IMMEDIATE")
            store._conn.execute(
                "INSERT INTO campaigns (id, scheduler, workload,"
                " engine_mode, seeds, failures, config_key, payload)"
                " VALUES ('torn', 'coefficient', 'w', 'vectorized', 1, 0,"
                " 'cfg', '{{}}')")
            store._conn.execute(
                "INSERT INTO runs (id, scheduler, seed, cycles,"
                " produced, delivered, running_time_ms,"
                " bandwidth_utilization, efficiency, static_latency_ms,"
                " dynamic_latency_ms, deadline_miss_ratio, payload)"
                " VALUES ('torn-run', 'coefficient', 1, 1, 1, 1,"
                " 0, 0, 0, 0, 0, 0, '{{}}')")
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        assert child.returncode == -signal.SIGKILL, child.stderr
        # Recovery on reopen: the uncommitted transaction must vanish
        # entirely -- no campaign without its runs, no runs without
        # their campaign, nothing half-ingested.
        with ResultStore(str(db)) as store:
            assert all(count == 0 for count in store.counts().values())

    def test_sigkill_between_row_batches_is_all_or_nothing(
            self, tmp_path, tiny_campaign, experiment_kwargs):
        # A full record_campaign in the parent, then a child that
        # crashes mid-way through ingesting a *second* campaign: the
        # first stays intact and queryable.
        db = tmp_path / "partial.db"
        with ResultStore(str(db)) as store:
            campaign_id = store.record_campaign(
                tiny_campaign, experiment_kwargs, workload="tiny")
            before = store.counts()
        child = _run_child(f"""
            import os, signal
            from repro.results import ResultStore

            store = ResultStore({str(db)!r})
            store._conn.execute("BEGIN IMMEDIATE")
            store._conn.execute(
                "INSERT INTO campaigns (id, scheduler, workload,"
                " engine_mode, seeds, failures, config_key, payload)"
                " VALUES ('doomed', 'fspec', 'w', 'vectorized', 1, 0,"
                " 'cfg', '{{}}')")
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        assert child.returncode == -signal.SIGKILL, child.stderr
        with ResultStore(str(db), read_only=True) as store:
            assert store.counts() == before
            assert store.campaign(campaign_id) is not None
            assert store.campaigns(scheduler="fspec")[1] == 0


class TestConcurrentWriters:
    def test_concurrent_ingest_converges_to_one_row_set(self, tmp_path):
        # Several processes ingest the *same* content-addressed
        # campaign at once.  WAL + BEGIN IMMEDIATE serializes them;
        # INSERT OR IGNORE makes every interleaving land on identical
        # final state: exactly one campaign row, one run row per seed.
        db = tmp_path / "race.db"
        ResultStore(str(db)).close()  # settle the schema up front
        code = f"""
            from repro.experiments.campaign import (CampaignResult,
                                                    MetricSummary)
            from repro.results import ResultStore

            summaries = {{"efficiency": MetricSummary(
                name="efficiency", samples=4, mean=0.5, stdev=0.1,
                ci_low=0.4, ci_high=0.6, minimum=0.3, maximum=0.7)}}
            campaign = CampaignResult(scheduler="coefficient", seeds=[],
                                      results=[], summaries=summaries)
            with ResultStore({str(db)!r}) as store:
                for _ in range(20):
                    print(store.record_campaign(campaign, {{}},
                                                workload="race"))
        """
        env = dict(os.environ, PYTHONPATH=_SRC)
        children = [subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(code)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(4)]
        ids = set()
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            ids.update(out.split())
        assert len(ids) == 1  # every writer computed the same id
        with ResultStore(str(db), read_only=True) as store:
            assert store.counts()["campaigns"] == 1


class TestMetricsWriteCrashSafety:
    @pytest.fixture
    def previous_export(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        obs = Observability()
        obs.inc("engine.cycles", 7)
        write_metrics_jsonl(str(path), obs, meta={"generation": 1})
        return path, path.read_bytes()

    def test_sigkill_before_replace_keeps_previous_file(
            self, previous_export):
        path, original = previous_export
        # The child rewrites the export but dies at the worst moment:
        # temp file fully written, os.replace about to run.
        child = _run_child(f"""
            import os, signal
            from repro.obs import Observability, write_metrics_jsonl

            real_replace = os.replace
            def die(src, dst):
                os.kill(os.getpid(), signal.SIGKILL)
            os.replace = die

            obs = Observability()
            obs.inc("engine.cycles", 99)
            write_metrics_jsonl({str(path)!r}, obs,
                                meta={{"generation": 2}})
        """)
        assert child.returncode == -signal.SIGKILL, child.stderr
        # The previous export is byte-for-byte intact and readable.
        assert path.read_bytes() == original
        records = read_metrics_jsonl(str(path))
        assert records[0]["generation"] == 1

    def test_sigkill_mid_temp_write_never_touches_target(
            self, previous_export):
        path, original = previous_export
        # Crash while the temp file is still being filled: flush after
        # the first line, then die.
        child = _run_child(f"""
            import os, signal
            from repro.obs import Observability, write_metrics_jsonl

            class Tripwire:
                def __init__(self, handle):
                    self._handle = handle
                    self._lines = 0
                def write(self, data):
                    self._handle.write(data)
                    self._lines += 1
                    if self._lines == 2:
                        self._handle.flush()
                        os.kill(os.getpid(), signal.SIGKILL)
                def __enter__(self):
                    return self
                def __exit__(self, *exc):
                    return self._handle.__exit__(*exc)
                def __getattr__(self, name):
                    return getattr(self._handle, name)

            real_fdopen = os.fdopen
            os.fdopen = lambda fd, *a, **kw: Tripwire(
                real_fdopen(fd, *a, **kw))

            obs = Observability()
            obs.inc("engine.cycles", 99)
            write_metrics_jsonl({str(path)!r}, obs,
                                meta={{"generation": 2}})
        """)
        assert child.returncode == -signal.SIGKILL, child.stderr
        assert path.read_bytes() == original


class TestLegacyTornTailRecovery:
    def test_reader_recovers_prefix_of_a_torn_legacy_file(self, tmp_path):
        # Files written by the old in-place writer can still end in a
        # partial line; the new reader must salvage the intact prefix.
        path = tmp_path / "legacy.jsonl"
        obs = Observability()
        obs.inc("engine.cycles", 7)
        write_metrics_jsonl(str(path), obs)
        intact = read_metrics_jsonl(str(path))
        torn = path.read_bytes()[:-1] + b'\n{"record": "gauge", "na'
        path.write_bytes(torn)
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            recovered = read_metrics_jsonl(str(path))
        assert recovered == intact
