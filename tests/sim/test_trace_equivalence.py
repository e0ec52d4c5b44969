"""Differential engine tests: vectorized versus interpreter, byte for byte.

The default engine (:class:`repro.timeline.vectorized.VectorizedStepper`) claims
*trace equivalence* with the per-slot interpreter: same
configuration, same seed, same policy -> the exact same sequence of
:class:`~repro.sim.trace.FrameRecord` entries, every field identical, in
the same order.  Every scenario also runs on the engine's delegated
:class:`~repro.timeline.stepper.TimelineStepper` path (see
``tests/sim/engine_paths.py``).  These tests prove the claim on seeded
workloads that together cover every behavioural regime the engine has:

- fault injection (the RNG-consuming corruption path),
- retransmission planning under faults (CoEfficient and FSPEC),
- aperiodic traffic through the dynamic segment (including expired
  frames kept queued),
- a static-only cycle with zero minislots,
- a post-mode-change configuration produced by the admission
  controller.

Every scenario runs on both protocol backends (FlexRay and
TTEthernet): the equivalence contract is a property of the neutral
engine, so it must hold for any registered geometry.  Five seeded
scenarios per backend, one or more per scheduler, are additionally
pinned to golden trace digests, so a silent change to trace identity
fails loudly.

Equivalence is asserted on :func:`canonical_trace_bytes` -- deliberately
stricter than metric equality -- plus the SHA-256 digest convenience.
"""

import pytest

from repro.core.mode_change import ModeChangeController
from repro.experiments.runner import run_experiment
from repro.protocol.backend import get_backend
from repro.protocol.signal import Signal
from repro.sim.engine import EngineMode
from repro.sim.trace import canonical_trace_bytes, trace_digest
from repro.workloads.acc import acc_signals
from repro.workloads.bbw import bbw_signals
from repro.workloads.generator import generate_scenario
from repro.workloads.sae import sae_aperiodic_signals
from repro.workloads.synthetic import synthetic_signals
from tests.sim.engine_paths import PATHS, run_path

BACKENDS = ("flexray", "ttethernet")

pytestmark = pytest.mark.parametrize("backend", BACKENDS)


def case_study_params(backend, workload, **kwargs):
    return get_backend(backend).case_study_params(workload, **kwargs)


def small_geometry(backend, minislots=40):
    """The backend's realization of the small 10-slot test cluster."""
    return get_backend(backend).scenario_geometry(
        static_slots=10, minislots=minislots, channel_count=2)


def run_both(**kwargs):
    """Run one configuration under both engines.

    Returns the (interpreter, vectorized) pair.  The delegated
    ``stepper`` path is checked against the oracle inline, so every
    scenario in this module also covers the engine's per-slot delegate.
    """
    oracle = run_path("interpreter", **kwargs)
    delegated = run_path("stepper", **kwargs)
    batch = run_path("vectorized", **kwargs)
    assert oracle.cluster.mode is EngineMode.INTERPRETER
    assert batch.cluster.mode is EngineMode.VECTORIZED
    assert batch.cluster.vectorized_active
    assert delegated.cluster._stepper.vectorized_batches == 0
    assert (canonical_trace_bytes(delegated.cluster.trace)
            == canonical_trace_bytes(oracle.cluster.trace))
    assert delegated.cycles_run == oracle.cycles_run
    assert delegated.counters == oracle.counters
    return oracle, batch


def assert_equivalent(oracle, fast):
    """Byte-identical traces and matching digests, non-vacuously."""
    assert len(fast.cluster.trace) > 0, "scenario produced an empty trace"
    assert (canonical_trace_bytes(oracle.cluster.trace)
            == canonical_trace_bytes(fast.cluster.trace))
    assert trace_digest(oracle.cluster.trace) == trace_digest(fast.cluster.trace)
    assert oracle.cycles_run == fast.cycles_run
    assert oracle.counters == fast.counters


class TestTraceEquivalence:
    @pytest.mark.parametrize("seed", (1, 7))
    def test_bbw_faulty_completion(self, seed, backend):
        """Brake-by-wire under heavy faults, run to completion.

        Exercises the retransmission planner and the RNG-consuming
        corruption path in completion mode, where one extra or missing
        cycle would change ``cycles_run`` and the trace tail.
        """
        oracle, fast = run_both(
            params=case_study_params(backend, "bbw"),
            scheduler="coefficient",
            periodic=bbw_signals(),
            ber=1e-4,
            seed=seed,
            duration_ms=None,
            instance_limit=4,
        )
        assert_equivalent(oracle, fast)
        outcomes = {r.outcome.value for r in fast.cluster.trace}
        assert "corrupted" in outcomes, "fault injection never fired"

    def test_acc_fspec_faulty(self, backend):
        """Adaptive cruise control under FSPEC's feedback ARQ with faults."""
        oracle, fast = run_both(
            params=case_study_params(backend, "acc"),
            scheduler="fspec",
            periodic=acc_signals(),
            ber=1e-5,
            seed=11,
            duration_ms=60.0,
        )
        assert_equivalent(oracle, fast)

    def test_synthetic_with_aperiodics(self, backend):
        """Mixed traffic through the dynamic segment, expired frames kept.

        ``drop_expired_dynamic=False`` keeps late frames queued, so the
        dynamic-segment arbitration (minislot counting, slot exhaustion)
        stays busy for the whole horizon under both engines.
        """
        oracle, fast = run_both(
            params=get_backend(backend).dynamic_preset(100),
            scheduler="dynamic-priority",
            periodic=synthetic_signals(12, seed=3, max_size_bits=216),
            aperiodic=sae_aperiodic_signals(count=16),
            ber=0.0,
            seed=23,
            duration_ms=50.0,
            drop_expired_dynamic=False,
        )
        assert_equivalent(oracle, fast)
        assert fast.cluster.trace.records_for_segment("dynamic"), \
            "dynamic segment never used"

    def test_static_only_zero_minislots(self, backend,
                                        tiny_periodic_signals):
        """A cycle with no dynamic segment at all: pure static TDMA."""
        oracle, fast = run_both(
            params=small_geometry(backend, minislots=0),
            scheduler="static-only",
            periodic=tiny_periodic_signals,
            ber=0.0,
            seed=5,
            duration_ms=20.0,
        )
        assert_equivalent(oracle, fast)

    def test_post_mode_change_configuration(self, backend,
                                            tiny_periodic_signals):
        """The workload an online mode change admits runs equivalently.

        The admission controller evolves the signal set at runtime; the
        engines must agree on the *new* mode's schedule, not just the
        baseline one.
        """
        small_params = small_geometry(backend)
        controller = ModeChangeController(small_params,
                                          tiny_periodic_signals)
        decision = controller.try_admit(
            Signal(name="mc-new", ecu=3, period_ms=1.6, offset_ms=0.4,
                   deadline_ms=1.6, size_bits=160))
        assert decision.admitted
        oracle, fast = run_both(
            params=small_params,
            scheduler="coefficient",
            periodic=controller.signals,
            ber=2e-6,
            seed=17,
            duration_ms=40.0,
        )
        assert_equivalent(oracle, fast)
        assert any(r.message_id.startswith("mc-new") or "mc-new" in r.message_id
                   for r in fast.cluster.trace), "admitted signal never sent"


class TestFastPathEngagement:
    def test_default_engine_batches(self, backend, tiny_periodic_signals):
        """Guard against vacuity: the default engine is the batch engine
        and an open-loop policy never leaves the batch path."""
        fast = run_experiment(
            params=small_geometry(backend),
            scheduler="static-only",
            periodic=tiny_periodic_signals,
            ber=0.0,
            seed=1,
            duration_ms=10.0,
        )
        assert fast.cluster.mode is EngineMode.VECTORIZED
        assert fast.cluster.vectorized_active
        assert fast.cluster._stepper.vectorized_batches > 0
        assert fast.cluster._stepper.scalar_fallback_cycles == 0

    def test_stepper_actually_engages(self, backend,
                                      tiny_periodic_signals):
        """A feedback policy under the default engine takes the delegated
        TimelineStepper path and still matches the oracle."""
        kwargs = dict(
            params=small_geometry(backend),
            scheduler="coefficient",
            periodic=tiny_periodic_signals,
            ber=1e-3,
            seed=3,
            duration_ms=20.0,
            feedback=True,
        )
        oracle = run_experiment(engine_mode="interpreter", **kwargs)
        fast = run_experiment(**kwargs)
        assert fast.cluster.mode is EngineMode.VECTORIZED
        assert fast.cluster._stepper.scalar_fallback_cycles > 0
        assert_equivalent(oracle, fast)
        assert "corrupted" in {r.outcome.value for r in fast.cluster.trace}

    def test_interpreter_never_engages(self, backend,
                                       tiny_periodic_signals):
        oracle = run_experiment(
            params=small_geometry(backend),
            scheduler="static-only",
            periodic=tiny_periodic_signals,
            ber=0.0,
            seed=1,
            duration_ms=10.0,
            engine_mode="interpreter",
        )
        assert not oracle.cluster.vectorized_active


#: Golden SHA-256 trace digests for five seeded generated scenarios
#: per backend, covering every scheduler's default path: static-only
#: (seed 1), coefficient (3, 42), fspec (10) and dynamic-priority (11).
#: Trace identity (geometry realization, schedule placement, fault
#: interleaving, the ``protocol=`` header) cannot drift silently.  Regenerate deliberately with
#: ``trace_digest(run_experiment(engine_mode=mode,
#: **generate_scenario(seed, backend).experiment_kwargs())
#: .cluster.trace)`` after an intentional trace-identity change.
GOLDEN_DIGESTS = {
    "flexray": {
        1: "bd32eab8f9ffda70cb4078dde8cb301d0b9f066221005246f427f1247d2a9359",
        3: "69ed078ca86c2d04456da40b8c92807d65a7344d3f3238f6bbd4862b9f959e74",
        10: "96e5f15872eb7a6f0fc169cef3becc482e9b8d35aa032564c2fd2c0e80466fd3",
        11: "d5b6fe4699effd256619a0216001118272591fdc871157ae755ad0f5aa7591b8",
        42: "7422e74e830167f4b63c8cbdd16e2b77b5885285ca342cc1b0e3b84f1c6bba7b",
    },
    "ttethernet": {
        1: "5bb18d1b2870039b72476a1edede40c80db30b030b5c0a31b4c60dda8288f902",
        3: "ca83fdda9692c888783bfe4302c2265a7da9bd0edfea202f783b43d69d7b835b",
        10: "78da43e5777057f9befa097dd3644468b4a52fc02ab656b4ef5e18dae75db947",
        11: "a0f9dbf157b1a31cf00de3add18931eecd1941149c347ed7ec2e0d7b97d5758c",
        42: "139dd362b781c7177c87e7e18a27bf1d811e49910fc2e81931a4ea569f780076",
    },
}


class TestGoldenDigests:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS["flexray"]))
    def test_all_engines_match_the_golden_digest(self, seed, backend):
        scenario = generate_scenario(seed, backend)
        digests = {
            path: trace_digest(run_path(
                path, **scenario.experiment_kwargs()).cluster.trace)
            for path in PATHS
        }
        assert len(set(digests.values())) == 1, digests
        assert digests["interpreter"] == GOLDEN_DIGESTS[backend][seed], \
            f"{backend} trace identity drifted on seed {seed} " \
            f"({scenario.name})"

    def test_backends_never_share_a_digest(self, backend):
        """The same abstract scenario digests differently per backend.

        Geometry alone would usually guarantee this, but the
        ``protocol=`` trace header makes it a hard invariant even for
        coincidentally identical frame sequences.
        """
        other = [b for b in BACKENDS if b != backend][0]
        assert not (set(GOLDEN_DIGESTS[backend].values())
                    & set(GOLDEN_DIGESTS[other].values()))
