"""Seeded random scenario generation for differential engine testing.

The two engine modes (the interpreter oracle and the vectorized
engine) promise byte-identical canonical traces.  Hand-written
equivalence tests cover the known corners; this module generates
*arbitrary* valid scenarios -- cluster geometry, workload, scheduler,
fault rate, completion mode -- from a single integer seed so the fuzz
suite (``tests/sim/test_engine_fuzz.py``) can sweep hundreds of
configurations and the oracle gate can catch divergences no one thought
to write a test for.

Every draw goes through :class:`~repro.sim.rng.RngStream`, so
``generate_scenario(seed)`` is a pure function of ``seed``: a failing
seed reported by CI reproduces locally with no extra state.

Scenarios are sized for speed, not realism: small clusters (8-12 static
slots), short horizons (a few dozen cycles), workloads that always pack
(at most ``slots - 2`` periodic messages, so even a repetition-1
allocation fits each channel).  The point is coverage of engine *paths*
-- fault bursts, zero-minislot clusters, exact-fill dynamic segments,
feedback schedulers, mode changes -- not of automotive workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.mode_change import ModeChangeController
from repro.protocol.backend import ProtocolBackend, get_backend
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.signal import Signal, SignalSet
from repro.sim.rng import RngStream
from repro.workloads.sae import sae_aperiodic_signals
from repro.workloads.synthetic import synthetic_signals

__all__ = ["GeneratedScenario", "generate_scenario", "SCHEDULER_CHOICES"]

#: Scheduler registry names the generator draws from (all four).
SCHEDULER_CHOICES: Tuple[str, ...] = (
    "coefficient", "static-only", "fspec", "dynamic-priority",
)

_STATIC_SLOT_CHOICES = (8, 10, 12)
#: Includes 0 (no dynamic segment at all) -- a corner the engines must
#: agree on without ever touching the minislot machinery.
_MINISLOT_CHOICES = (0, 16, 25, 40)
_BER_CHOICES = (0.0, 1e-7, 1e-5, 1e-4, 1e-3)
_DURATION_CHOICES_MS = (8.0, 16.0, 24.0)

@dataclass(frozen=True)
class GeneratedScenario:
    """One fully specified differential-test scenario.

    ``experiment_kwargs()`` yields the exact keyword set for
    :func:`repro.experiments.runner.run_experiment` minus
    ``engine_mode``, which the caller supplies per engine under test.
    """

    seed: int
    name: str
    params: SegmentGeometry
    scheduler: str
    periodic: SignalSet
    aperiodic: Optional[SignalSet]
    ber: float
    duration_ms: Optional[float]
    instance_limit: Optional[int]
    policy_kwargs: Dict[str, object] = field(default_factory=dict)

    def experiment_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for ``run_experiment`` (sans engine mode)."""
        return dict(
            params=self.params,
            scheduler=self.scheduler,
            periodic=self.periodic,
            aperiodic=self.aperiodic,
            ber=self.ber,
            seed=self.seed,
            duration_ms=self.duration_ms,
            instance_limit=self.instance_limit,
            # Completion-mode safety net: a stalled run must terminate
            # quickly, and identically, under every engine.
            max_cycles=4000,
            **self.policy_kwargs,
        )


def _make_params(rng: RngStream, backend: ProtocolBackend) -> SegmentGeometry:
    """Draw scenario geometry counts, realized by the backend.

    Only the abstract *counts* (slots, minislots, pLatestTx, channels)
    come from the RNG -- in a fixed draw order, independent of the
    backend -- so one seed names the same abstract scenario on every
    backend; the backend maps the counts onto its own window and
    quantum lengths via
    :meth:`~repro.protocol.backend.ProtocolBackend.scenario_geometry`.
    """
    slots = rng.choice(_STATIC_SLOT_CHOICES)
    minislots = rng.choice(_MINISLOT_CHOICES)
    latest_tx = 0
    if minislots and rng.bernoulli(0.3):
        # A restrictive pLatestTx exercises the hold/late-start
        # arbitration branch of the dynamic segment.
        latest_tx = rng.randint(max(1, minislots // 2), minislots)
    return backend.scenario_geometry(
        static_slots=slots,
        minislots=minislots,
        p_latest_tx_minislot=latest_tx,
        channel_count=2 if rng.bernoulli(0.8) else 1,
    )


def _make_periodic(rng: RngStream, params: SegmentGeometry) -> SignalSet:
    # At most slots - 2 messages: even a repetition-1 packing then fits
    # one channel, so every generated workload is schedulable and the
    # fuzz suite never wastes a seed on an admission failure.
    slots = params.g_number_of_static_slots
    count = rng.randint(3, slots - 2)
    return synthetic_signals(
        count,
        seed=rng.randint(0, 2**31 - 1),
        ecu_count=rng.choice((4, 6, 10)),
    )


def _maybe_mode_change(rng: RngStream, params: SegmentGeometry,
                       periodic: SignalSet) -> SignalSet:
    """Sometimes admit one extra signal through the admission service.

    The post-change workload is what the scenario runs, mirroring the
    ``repro serve`` flow: the engines must agree on rebuilt schedules,
    not just on freshly generated ones.
    """
    if not rng.bernoulli(0.25):
        return periodic
    cycle_ms = params.cycle_ms
    extra = Signal(
        name="gen-mc",
        ecu=rng.randint(0, 3),
        period_ms=4 * cycle_ms,
        offset_ms=rng.choice((0.0, 0.5 * cycle_ms)),
        deadline_ms=4 * cycle_ms,
        size_bits=rng.choice((96, 160)),
    )
    try:
        controller = ModeChangeController(params, periodic,
                                          require_deadlines=False)
        decision = controller.try_admit(extra)
    except ValueError:
        return periodic
    return controller.signals if decision.admitted else periodic


def generate_scenario(seed: int,
                      backend: str = "flexray") -> GeneratedScenario:
    """Deterministically expand ``seed`` into a runnable scenario.

    Args:
        seed: Scenario seed; a pure function of ``(seed, backend)``.
        backend: Protocol backend name; every RNG draw happens in the
            same order regardless of it, so the same seed explores the
            same abstract scenario (counts, workload, scheduler, fault
            rate) on each backend.
    """
    rng = RngStream(seed, scope="scenario-generator")
    params = _make_params(rng, get_backend(backend))
    periodic = _maybe_mode_change(rng, params, _make_periodic(rng, params))
    scheduler = rng.choice(SCHEDULER_CHOICES)
    ber = rng.choice(_BER_CHOICES)

    completion_mode = rng.bernoulli(0.25)
    if completion_mode:
        duration_ms: Optional[float] = None
        instance_limit: Optional[int] = rng.randint(2, 4)
        aperiodic: Optional[SignalSet] = None
    else:
        duration_ms = rng.choice(_DURATION_CHOICES_MS)
        instance_limit = None
        aperiodic = None
        if params.g_number_of_minislots and rng.bernoulli(0.5):
            aperiodic = sae_aperiodic_signals(
                count=rng.randint(3, 10),
                seed=rng.randint(0, 2**31 - 1),
                interarrival_ms=rng.choice((5.0, 12.0)),
                deadline_ms=12.0,
            )

    policy_kwargs: Dict[str, object] = {}
    if rng.bernoulli(0.5):
        policy_kwargs["drop_expired_dynamic"] = False

    name = (f"gen-{seed}-{type(params).protocol}-{scheduler}"
            f"-s{params.g_number_of_static_slots}"
            f"-m{params.g_number_of_minislots}"
            f"-{'complete' if completion_mode else 'horizon'}")
    return GeneratedScenario(
        seed=seed,
        name=name,
        params=params,
        scheduler=scheduler,
        periodic=periodic,
        aperiodic=aperiodic,
        ber=ber,
        duration_ms=duration_ms,
        instance_limit=instance_limit,
        policy_kwargs=policy_kwargs,
    )
