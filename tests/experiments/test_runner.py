"""Unit tests for the experiment runner."""

import gc

import pytest

from repro.experiments import runner
from repro.experiments.runner import SCHEDULERS, make_policy, run_experiment
from repro.faults.ber import BitErrorRateModel
from repro.obs import NULL_OBS, Observability
from repro.packing.frame_packing import pack_signals


class TestMakePolicy:
    def test_all_registry_names(self, small_params, tiny_workload):
        packing = pack_signals(tiny_workload, small_params)
        model = BitErrorRateModel(ber_channel_a=0.0)
        for name in SCHEDULERS:
            policy = make_policy(name, packing, model)
            assert policy is not None

    def test_unknown_name(self, small_params, tiny_workload):
        packing = pack_signals(tiny_workload, small_params)
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_policy("bogus", packing,
                        BitErrorRateModel(ber_channel_a=0.0))


class TestRunExperiment:
    def test_duration_mode(self, small_params, tiny_periodic_signals,
                           tiny_aperiodic_signals):
        result = run_experiment(
            params=small_params,
            scheduler="coefficient",
            periodic=tiny_periodic_signals,
            aperiodic=tiny_aperiodic_signals,
            ber=0.0,
            duration_ms=10.0,
        )
        assert result.cycles_run == 13  # ceil(10 / 0.8)
        assert result.metrics.produced_instances > 0
        assert result.completion_ms == pytest.approx(13 * 0.8)

    def test_completion_mode(self, small_params, tiny_periodic_signals):
        result = run_experiment(
            params=small_params,
            scheduler="coefficient",
            periodic=tiny_periodic_signals,
            ber=0.0,
            duration_ms=None,
            instance_limit=3,
        )
        metrics = result.metrics
        assert metrics.delivered_instances == metrics.produced_instances

    def test_needs_a_mode(self, small_params, tiny_periodic_signals):
        with pytest.raises(ValueError):
            run_experiment(params=small_params, scheduler="coefficient",
                           periodic=tiny_periodic_signals,
                           duration_ms=None, instance_limit=None)

    def test_needs_a_workload(self, small_params):
        with pytest.raises(ValueError):
            run_experiment(params=small_params, scheduler="coefficient",
                           duration_ms=10.0)

    def test_periodic_only(self, small_params, tiny_periodic_signals):
        result = run_experiment(
            params=small_params, scheduler="fspec",
            periodic=tiny_periodic_signals, duration_ms=5.0,
        )
        assert result.scheduler == "fspec"

    def test_aperiodic_only(self, small_params, tiny_aperiodic_signals):
        result = run_experiment(
            params=small_params, scheduler="dynamic-priority",
            aperiodic=tiny_aperiodic_signals, duration_ms=10.0,
        )
        assert result.metrics.produced_instances > 0

    def test_deterministic_for_seed(self, small_params,
                                    tiny_periodic_signals,
                                    tiny_aperiodic_signals):
        def run():
            return run_experiment(
                params=small_params, scheduler="coefficient",
                periodic=tiny_periodic_signals,
                aperiodic=tiny_aperiodic_signals,
                ber=1e-4, seed=9, duration_ms=20.0,
            )

        first, second = run(), run()
        assert first.metrics == second.metrics
        assert first.counters == second.counters

    def test_seed_changes_outcome(self, small_params,
                                  tiny_periodic_signals,
                                  tiny_aperiodic_signals):
        def run(seed):
            result = run_experiment(
                params=small_params, scheduler="coefficient",
                periodic=tiny_periodic_signals,
                aperiodic=tiny_aperiodic_signals,
                ber=1e-3, seed=seed, duration_ms=20.0,
            )
            return result.metrics.corrupted_attempts

        outcomes = {run(seed) for seed in range(5)}
        assert len(outcomes) > 1

    def test_policy_kwargs_forwarded(self, small_params,
                                     tiny_periodic_signals):
        result = run_experiment(
            params=small_params, scheduler="coefficient",
            periodic=tiny_periodic_signals, duration_ms=5.0,
            selective=False,
        )
        assert result.cluster.policy._selective is False

    def test_row_format(self, small_params, tiny_periodic_signals):
        result = run_experiment(
            params=small_params, scheduler="coefficient",
            periodic=tiny_periodic_signals, duration_ms=5.0,
        )
        row = result.row()
        assert row["scheduler"] == "coefficient"
        assert "bandwidth_utilization" in row


class TestGcTimers:
    def test_passes_during_the_run_are_charged_per_generation(
            self, small_params, tiny_periodic_signals):
        obs = Observability()
        passes = []

        def collect_once_per_generation(event, fields):
            if len(passes) < 3:
                passes.append(gc.collect(len(passes)))

        obs.hooks.subscribe("engine.cycle", collect_once_per_generation)
        callbacks = list(gc.callbacks)
        run_experiment(params=small_params, scheduler="coefficient",
                       periodic=tiny_periodic_signals, ber=0.0, seed=1,
                       duration_ms=10.0, obs=obs)
        assert len(passes) == 3
        assert gc.callbacks == callbacks, "the hook outlived the run"
        sections = obs.snapshot()["profile"]
        for generation in (0, 1, 2):
            section = sections[f"engine.gc.gen{generation}"]
            assert section["count"] >= 1
            assert section["total_ns"] > 0

    def test_disabled_obs_registers_no_hook(self, monkeypatch, small_params,
                                            tiny_periodic_signals):
        def refuse(obs):
            raise AssertionError("GC hook registered without observability")

        monkeypatch.setattr(runner, "_charge_gc", refuse)
        run_experiment(params=small_params, scheduler="coefficient",
                       periodic=tiny_periodic_signals, ber=0.0, seed=1,
                       duration_ms=10.0, obs=NULL_OBS)
