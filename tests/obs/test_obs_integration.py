"""Observability threaded through the full stack, end to end.

Covers the acceptance path of the subsystem: a real experiment run with
an enabled context produces engine, slack, and retransmission counters;
identical seeded runs produce byte-identical deterministic snapshots;
and the CLI's ``--metrics-out`` emits a JSONL file the validating reader
accepts -- including on a Figure-5 campaign run.
"""


from repro import cli
from repro.experiments.campaign import run_campaign
from repro.experiments.runner import run_experiment
from repro.flexray.params import paper_dynamic_preset
from repro.obs.export import read_metrics_jsonl
from repro.obs.hooks import HookRecorder
from repro.obs.observability import Observability
from repro.workloads.sae import sae_aperiodic_signals
from repro.workloads.synthetic import synthetic_signals


def _run(obs, scheduler="coefficient", seed=42, ber=2e-6):
    return run_experiment(
        params=paper_dynamic_preset(50),
        scheduler=scheduler,
        periodic=synthetic_signals(12, seed=7, max_size_bits=216),
        aperiodic=sae_aperiodic_signals(count=12),
        ber=ber,
        seed=seed,
        duration_ms=150.0,
        obs=obs,
    )


class TestExperimentObservability:
    def test_run_populates_engine_slack_and_retransmission_counters(self):
        obs = Observability()
        _run(obs)
        counters = obs.deterministic_snapshot()["counters"]
        gauges = obs.deterministic_snapshot()["gauges"]
        assert counters["engine.cycles"] > 0
        assert counters["engine.arrivals_delivered"] > 0
        assert gauges["engine.cycles_run"]["value"] > 0
        assert counters["slack.table_queries"] > 0
        assert "slack.promise_granted" in counters
        assert counters["retransmission.plan.budget_total"] >= 0
        assert gauges["retransmission.plan.feasible"]["value"] in (0.0, 1.0)
        assert "policy.primary_tx" in counters

    def test_per_segment_profile_sections_recorded(self):
        obs = Observability()
        _run(obs)
        profile = obs.snapshot()["profile"]
        for section in ("experiment.setup", "experiment.run",
                        "cluster.static_segment",
                        "cluster.dynamic_segment", "metrics.compute"):
            assert profile[section]["count"] > 0

    def test_slack_promise_hook_events_fire(self):
        obs = Observability()
        recorder = HookRecorder()
        obs.hooks.subscribe("slack.promise", recorder)
        _run(obs)
        assert len(recorder) > 0
        for fields in recorder.of("slack.promise"):
            assert isinstance(fields["granted"], bool)

    def test_identical_runs_have_identical_deterministic_snapshots(self):
        obs_a, obs_b = Observability(), Observability()
        _run(obs_a)
        _run(obs_b)
        assert (obs_a.deterministic_snapshot()
                == obs_b.deterministic_snapshot())

    def test_observed_run_matches_unobserved_metrics(self):
        from repro.obs.observability import NULL_OBS

        bare = _run(NULL_OBS)
        observed = _run(Observability())
        assert bare.metrics == observed.metrics
        assert bare.counters == observed.counters
        assert bare.cycles_run == observed.cycles_run

    def test_campaign_accumulates_across_seeds(self):
        obs = Observability()
        run_campaign(
            "coefficient", seeds=(1, 2),
            params=paper_dynamic_preset(50),
            periodic=synthetic_signals(8, seed=7, max_size_bits=216),
            ber=1e-7,
            duration_ms=100.0,
            obs=obs,
        )
        counters = obs.deterministic_snapshot()["counters"]
        assert counters["campaign.runs"] == 2
        assert counters["engine.cycles"] > 0


class TestCliMetricsOut:
    def test_run_writes_valid_jsonl(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        exit_code = cli.main([
            "run", "--workload", "synthetic", "--count", "8",
            "--duration-ms", "80", "--scheduler", "coefficient",
            "--metrics-out", str(path),
        ])
        assert exit_code == 0
        records = read_metrics_jsonl(str(path))
        assert records[0]["command"] == "run"
        names = {r["name"] for r in records
                 if r["record"] in ("counter", "gauge")}
        assert any(n.startswith("engine.") for n in names)
        assert any(n.startswith("slack.") for n in names)
        assert any(n.startswith("retransmission.") for n in names)

    def test_figure5_campaign_emits_all_counter_families(
            self, tmp_path, capsys):
        path = tmp_path / "fig5.jsonl"
        exit_code = cli.main([
            "figures", "5", "--duration-ms", "40", "--json",
            "--metrics-out", str(path),
        ])
        assert exit_code == 0
        records = read_metrics_jsonl(str(path))
        meta = records[0]
        assert meta["figure"] == "5"
        counters = {r["name"]: r["value"]
                    for r in records if r["record"] == "counter"}
        # The three counter families the observability layer promises.
        assert counters["engine.cycles"] > 0
        assert counters["slack.table_queries"] > 0
        assert counters["slack.promise_granted"] >= 0
        assert counters["retransmission.plan.budget_total"] >= 0
        assert counters["retransmission.plan.planned_messages"] >= 0

    def test_profile_flag_prints_section_table(self, tmp_path, capsys):
        exit_code = cli.main([
            "run", "--workload", "synthetic", "--count", "6",
            "--duration-ms", "60", "--scheduler", "coefficient",
            "--profile",
        ])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "experiment.run" in err
        assert "section" in err

    def test_flags_off_means_no_observability_output(
            self, tmp_path, capsys):
        exit_code = cli.main([
            "run", "--workload", "synthetic", "--count", "6",
            "--duration-ms", "60", "--scheduler", "coefficient",
        ])
        assert exit_code == 0
        assert capsys.readouterr().err == ""
