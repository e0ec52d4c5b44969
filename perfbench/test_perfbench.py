"""The benchmark's own tests: pins, wrapper hygiene, and the no-source exit.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, SRC, load_pins  # noqa: E402

sys.path.insert(0, SRC)

import calib  # noqa: E402
import wl_engine  # noqa: E402
import wl_serve  # noqa: E402
from layers import campaign_targets, engine_targets, service_targets  # noqa: E402
from spans import (MARKER, Patcher, Tracer, make_wrapper, resolve,  # noqa: E402
                   wrapped_slots)

PINS = load_pins()


@pytest.mark.parametrize("workload", ["engine-bbw", "engine-dense"])
def test_pinned_engine_digests_equal_the_interpreter_oracle(workload):
    pinned = PINS[workload]
    assert pinned, f"no pinned seeds for {workload}"
    for seed, digest in sorted(pinned.items()):
        assert wl_engine.oracle_digest(workload, int(seed)) == digest, seed


def _slots(targets):
    """(owner, attr) -> the object in the owner's own dict, or None."""
    owners = [(resolve(target.owner), target.attr) for target in targets]
    modules = [module for module in list(sys.modules.values())
               if getattr(module, "__name__", "").startswith("repro")]
    slots = {}
    for owner, attr in owners:
        slots[(owner, attr)] = vars(owner).get(attr)
        if not isinstance(owner, type):
            for module in modules:
                slots[(module, attr)] = vars(module).get(attr)
    return slots


@pytest.mark.parametrize("make_targets", [engine_targets, service_targets,
                                          campaign_targets])
def test_traced_run_restores_every_wrapped_attribute(make_targets):
    import repro.experiments.campaign  # noqa: F401  (binds run_experiment)
    import repro.service.server  # noqa: F401  (binds parse/encode)

    targets = make_targets()
    before = _slots(targets)
    with Patcher(Tracer()) as patcher:
        patcher.install(targets)
        assert len(wrapped_slots(targets)) == len(targets)
        rebound = [value for value in _slots(targets).values()
                   if hasattr(value, MARKER)]
        assert len(rebound) >= len(targets)
    after = _slots(targets)
    assert before.keys() == after.keys()
    for key, original in before.items():
        assert after[key] is original, key
    assert wrapped_slots(targets) == []


def _wrapper_calls(action):
    """Run ``action`` counting calls into any span wrapper."""
    code = make_wrapper(len, Tracer(), "probe").__code__
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        result = action()
    finally:
        sys.setprofile(None)
    return result, calls[0]


def _untraced_phase():
    inputs = wl_engine.prepare("engine-bbw", 1)
    return wl_engine.phase("engine-bbw", 1, inputs, 0, 0.0, trace=False)


def test_untraced_run_executes_no_wrapper():
    samples, calls = _wrapper_calls(_untraced_phase)
    assert samples["problems"] == []
    assert calls == 0

    # The same counting sees the wrappers once they are installed.
    from repro.experiments import runner

    with Patcher(Tracer()) as patcher:
        patcher.install(engine_targets())
        __, calls = _wrapper_calls(lambda: runner.run_experiment(
            **wl_engine.scenario("engine-bbw", 1)))
    assert calls > 0
    assert wrapped_slots(engine_targets()) == []


def test_untraced_run_refuses_to_measure_with_a_wrapper_installed():
    with Patcher(Tracer()) as patcher:
        patcher.install(engine_targets()[:1])
        samples = _untraced_phase()
    assert any("wrappers installed" in problem
               for problem in samples["problems"])


def test_host_speed_factor_scales_to_the_nominal_kernel_time():
    assert calib.kernel() == calib.kernel()
    assert calib.probe() > 0
    assert calib.factor([calib.NOMINAL_S]) == 1.0
    # A host twice as slow halves the factor.
    slow = 2 * calib.NOMINAL_S
    assert calib.factor([slow, slow]) == 0.5
    assert calib.factor([calib.NOMINAL_S, 3 * calib.NOMINAL_S]) == 0.5


def test_serve_stream_is_a_function_of_the_seed():
    def head(seed, count=2000):
        items = wl_serve.stream(seed)
        return [next(items) for __ in range(count)]

    first = head(3)
    assert first == head(3)
    assert first != head(4)
    kinds = {item.kind for item in first}
    assert kinds == {"admit", "release", "stats"}
    for position, item in enumerate(first):
        if item.kind == "release":
            assert first[item.ref].kind == "admit"
            assert first[item.ref].name == item.name
            assert item.ref < position


def test_serve_pins_cover_every_pinned_seed():
    assert PINS["serve-mixed"].keys() == PINS["engine-bbw"].keys()
    for digests in PINS["serve-mixed"].values():
        assert len(digests) >= 64


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        command = json.load(handle)["command"]
    done = subprocess.run(
        [*command, "--workload", "engine-bbw", "--seed", "1", "--seconds",
         "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
