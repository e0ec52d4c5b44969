"""Differential fuzzing: three engine paths, one canonical trace.

For *any* valid configuration, the vectorized engine -- on its batch
path and on its delegated TimelineStepper path
(``tests/sim/engine_paths.py``) -- must produce the interpreter
oracle's byte-identical canonical trace, identical policy counters and
identical cycle counts.  This suite enforces that claim on generated
scenarios
(:mod:`repro.workloads.generator`) instead of hand-picked ones:

- a deterministic seed sweep (``REPRO_FUZZ_SCENARIOS``, default 200)
  run once per protocol backend, so every CI run covers the same
  ground on FlexRay *and* TTEthernet geometry,
- a hypothesis-driven search over fresh seeds beyond the sweep range
  (profiles ``dev``/``ci`` via ``REPRO_HYPOTHESIS_PROFILE``),
- directed boundary scans hypothesis is unlikely to hit by luck:
  dynamic-segment exact-fill payload sizes and correlated fault bursts
  (the burst injector has no batch interface, so it also exercises the
  vectorized engine's scalar-oracle fault path).

A failing case always prints the generator seed and backend; rerun it
with ``generate_scenario(seed, backend)`` -- no hypothesis database
needed.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import make_policy
from repro.faults.ber import BitErrorRateModel
from repro.faults.injector import BurstFaultInjector
from repro.flexray.cluster import FlexRayCluster
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream
from repro.sim.trace import canonical_trace_bytes, trace_digest
from repro.workloads.generator import (
    SCHEDULER_CHOICES,
    generate_scenario,
)
from repro.workloads.sae import sae_aperiodic_signals
from repro.workloads.synthetic import synthetic_signals
from tests.sim.engine_paths import (PATHS, engine_mode_of, path_context,
                                    run_path)

BACKENDS = ("flexray", "ttethernet")

#: Deterministic sweep width; CI pins it, local runs may widen it.
SWEEP_SCENARIOS = int(os.environ.get("REPRO_FUZZ_SCENARIOS", "200"))

settings.register_profile("dev", max_examples=20, deadline=None,
                          derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("ci", max_examples=60, deadline=None,
                          derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "dev"))


def fingerprint(result):
    """Everything the oracle gate compares, as one tuple."""
    return (
        canonical_trace_bytes(result.cluster.trace),
        trace_digest(result.cluster.trace),
        result.cycles_run,
        tuple(sorted(result.counters.items())),
    )


def assert_scenario_equivalent(scenario):
    """Run ``scenario`` on every engine path and compare fingerprints."""
    results = {
        path: run_path(path, **scenario.experiment_kwargs())
        for path in PATHS
    }
    oracle = fingerprint(results["interpreter"])
    for path in PATHS[1:]:
        assert fingerprint(results[path]) == oracle, (
            f"{path} diverged from the interpreter on seed "
            f"{scenario.seed} ({scenario.name})"
        )  # the name embeds the backend: rerun generate_scenario(seed, backend)
    return results


class TestGeneratedScenarioSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(SWEEP_SCENARIOS))
    def test_three_way_equivalence(self, seed, backend):
        assert_scenario_equivalent(generate_scenario(seed, backend))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generator_is_deterministic(self, backend):
        first = generate_scenario(13, backend)
        second = generate_scenario(13, backend)
        assert first.name == second.name
        assert first.params == second.params
        assert [s.name for s in first.periodic] \
            == [s.name for s in second.periodic]

    def test_backends_share_the_abstract_scenario(self):
        """One seed names the same abstract scenario on every backend.

        The RNG draw order is backend-independent by design: the slot /
        minislot counts, scheduler, fault rate and workload shape must
        all agree, while the realized geometry (and hence the params
        type) differs.
        """
        flexray = generate_scenario(29, "flexray")
        tte = generate_scenario(29, "ttethernet")
        assert type(flexray.params) is not type(tte.params)
        assert type(flexray.params).protocol == "flexray"
        assert type(tte.params).protocol == "ttethernet"
        assert flexray.scheduler == tte.scheduler
        assert flexray.ber == tte.ber
        assert flexray.params.g_number_of_static_slots \
            == tte.params.g_number_of_static_slots
        assert flexray.params.g_number_of_minislots \
            == tte.params.g_number_of_minislots
        assert [s.name for s in flexray.periodic] \
            == [s.name for s in tte.periodic]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sweep_covers_the_target_regimes(self, backend):
        """The fixed sweep must actually reach every engine path.

        If a generator change quietly stopped producing e.g.
        zero-minislot clusters, the sweep would still pass while testing
        less; this meta-check fails instead.
        """
        scenarios = [generate_scenario(seed, backend)
                     for seed in range(SWEEP_SCENARIOS)]
        assert {s.scheduler for s in scenarios} == set(SCHEDULER_CHOICES)
        assert any(s.params.g_number_of_minislots == 0 for s in scenarios)
        assert any(s.params.p_latest_tx_minislot > 0 for s in scenarios)
        assert any(s.params.channel_count == 1 for s in scenarios)
        assert any(s.instance_limit is not None for s in scenarios)
        assert any(s.aperiodic is not None for s in scenarios)
        assert any(s.ber == 0.0 for s in scenarios)
        assert any(s.ber >= 1e-4 for s in scenarios)
        assert any("gen-mc" in s.periodic for s in scenarios), \
            "no sweep scenario runs a post-mode-change workload"


class TestHypothesisSearch:
    @given(seed=st.integers(min_value=SWEEP_SCENARIOS,
                            max_value=2**31 - 1),
           backend=st.sampled_from(BACKENDS))
    def test_fresh_seeds_stay_equivalent(self, seed, backend):
        assert_scenario_equivalent(generate_scenario(seed, backend))


class TestDynamicFillBoundaries:
    """Directed scan across dynamic-slot fill levels.

    Sweeping the aperiodic payload size walks the arbitration through
    every fill regime -- short frames, exact minislot fill, and frames
    one bit past a minislot boundary (which must hold, not truncate).
    Random scenario generation rarely lands exactly on the boundary, so
    it is scanned explicitly.
    """

    @pytest.mark.parametrize("size_bits", range(8, 337, 24))
    def test_fill_levels_are_equivalent(self, small_params, size_bits):
        params = small_params.with_minislots(6)
        kwargs = dict(
            params=params,
            scheduler="dynamic-priority",
            periodic=synthetic_signals(3, seed=2, max_size_bits=216),
            aperiodic=sae_aperiodic_signals(
                count=2, seed=size_bits, interarrival_ms=2.0,
                deadline_ms=8.0, min_size_bits=size_bits,
                max_size_bits=size_bits),
            ber=1e-4,
            seed=size_bits,
            duration_ms=16.0,
            drop_expired_dynamic=False,
        )
        results = {path: run_path(path, **kwargs) for path in PATHS}
        oracle = fingerprint(results["interpreter"])
        for path in PATHS[1:]:
            assert fingerprint(results[path]) == oracle, \
                f"{path} diverged at payload size {size_bits}"


class TestFaultBursts:
    """Correlated bursts through an injector with no batch interface.

    ``BurstFaultInjector`` deliberately exposes only the scalar
    ``__call__``, so the vectorized engine must fall back to consulting
    it frame-by-frame in the interpreter's interleaved order -- the
    exact path a user-supplied fault model would take.
    """

    def _run(self, path, small_params, tiny_periodic_signals):
        packing = pack_signals(tiny_periodic_signals, small_params)
        ber_model = BitErrorRateModel(ber_channel_a=1e-5)
        rng = RngStream(31, scope="experiment")
        policy = make_policy("coefficient", packing, ber_model)
        cluster = FlexRayCluster(
            params=small_params,
            policy=policy,
            sources=packing.build_sources(rng),
            corrupts=BurstFaultInjector(
                ber_model, rng, burst_ber=0.02,
                burst_rate_per_ms=2.0, burst_length_mt=300),
            mode=engine_mode_of(path),
        )
        with path_context(path):
            cycles = cluster.run_for_ms(40.0)
        return cluster, cycles

    def test_bursts_are_equivalent_three_ways(self, small_params,
                                              tiny_periodic_signals):
        runs = {path: self._run(path, small_params, tiny_periodic_signals)
                for path in PATHS}
        oracle_cluster, oracle_cycles = runs["interpreter"]
        oracle_bytes = canonical_trace_bytes(oracle_cluster.trace)
        outcomes = {r.outcome.value for r in oracle_cluster.trace}
        assert "corrupted" in outcomes, "burst faults never fired"
        for path in PATHS[1:]:
            cluster, cycles = runs[path]
            assert cycles == oracle_cycles
            assert canonical_trace_bytes(cluster.trace) == oracle_bytes, \
                f"{path} diverged under burst faults"
        assert runs["vectorized"][0].vectorized_active
