"""A finished run is freed by reference counting and keeps nothing per frame.

The cluster owns its policy, segment engines, batch engine and trace;
none of them points back at the cluster, so dropping the last reference
to a result frees the whole run at once, without a cycle collection.
The trace keeps its records and instance state as primitive tuples,
which the collector untracks, so the number of objects it must walk
after a run does not grow with the run's length.
"""

import gc
import weakref

import pytest

from repro.experiments.figures import case_study_params
from repro.experiments.runner import SCHEDULERS, run_experiment
from repro.obs.observability import NULL_OBS, Observability
from repro.sim.engine import EngineMode
from repro.workloads.bbw import bbw_signals
from repro.workloads.sae import sae_aperiodic_signals

#: Schedulers whose policy takes ``feedback`` (reactive ARQ).
FEEDBACK_SCHEDULERS = ("coefficient", "fspec")

CASES = [
    pytest.param(scheduler, mode, feedback,
                 id=f"{scheduler}-{mode.value}"
                    f"{'-feedback' if feedback else ''}")
    for scheduler in SCHEDULERS
    for mode in EngineMode
    for feedback in ((False, True) if scheduler in FEEDBACK_SCHEDULERS
                     else (False,))
]


@pytest.fixture
def gc_disabled():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("observed", (False, True),
                         ids=("null-obs", "observed"))
@pytest.mark.parametrize("scheduler, mode, feedback", CASES)
def test_dropping_the_result_frees_the_run(gc_disabled, scheduler, mode,
                                           feedback, observed):
    kwargs = {"feedback": True} if feedback else {}
    result = run_experiment(
        params=case_study_params("bbw"), scheduler=scheduler,
        periodic=bbw_signals(), aperiodic=sae_aperiodic_signals(count=8),
        ber=1e-4, seed=3, duration_ms=20.0, engine_mode=mode,
        obs=Observability() if observed else NULL_OBS, **kwargs)
    assert len(result.cluster.trace) > 0
    cluster = weakref.ref(result.cluster)
    policy = weakref.ref(result.cluster.policy)
    del result
    assert cluster() is None, "the run survives its result: a cycle holds it"
    assert policy() is None


def _tracked_objects_held(instance_limit):
    """GC-tracked objects one finished bbw-completion run keeps alive."""
    gc.collect()
    before = len(gc.get_objects())
    result = run_experiment(
        params=case_study_params("bbw"), scheduler="coefficient",
        periodic=bbw_signals(), ber=1e-7, seed=1, duration_ms=None,
        instance_limit=instance_limit, engine_mode="vectorized")
    gc.collect()
    held = len(gc.get_objects()) - before
    assert len(result.cluster.trace) > 0
    del result
    return held


def test_tracked_objects_do_not_grow_with_the_run():
    short = _tracked_objects_held(50)
    long = _tracked_objects_held(200)
    # 150 more instances of 36 messages add thousands of records; the
    # objects the collector still walks must stay those of the
    # configuration (compiled round, schedule, buffers).
    assert long - short < 500, (short, long)


def test_trace_reaches_no_tracked_object_per_record():
    result = run_experiment(
        params=case_study_params("bbw"), scheduler="fspec",
        periodic=bbw_signals(), ber=1e-4, seed=7, duration_ms=None,
        instance_limit=20, engine_mode="vectorized")
    trace = result.cluster.trace
    # A collection untracks a tuple whose items are all untracked by
    # then; a block can be visited before its rows, so take two.
    gc.collect()
    gc.collect()
    # Walk the tracked containers the trace's attributes reach (not its
    # class); untracked tuples and dicts hold only atoms, so the walk
    # need not enter them.
    tracked = {}
    frontier = [value for value in vars(trace).values()
                if gc.is_tracked(value)]
    while frontier and len(tracked) < 100:
        container = frontier.pop()
        if id(container) not in tracked:
            tracked[id(container)] = container
            frontier.extend(value for value in gc.get_referents(container)
                            if gc.is_tracked(value))
    assert len(trace) > 500
    # The block list and the two instance maps, whatever the length.
    assert len(tracked) <= 3, [type(value) for value in tracked.values()]
