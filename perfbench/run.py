#!/usr/bin/env python3
"""One benchmark for the engine, the admission service and the campaign path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-bbw --seed 1 --seconds 20 \
        --trace 0

Workloads: ``engine-bbw``, ``engine-dense``, ``serve-mixed`` and
``campaign-store`` (see ``perfbench/NOTES.md``).  The program is run
from ``src/`` of the same checkout; nothing is installed.

A run is split into phases, each in a fresh interpreter started one
after the other: how fast one process runs varies with its memory
layout and placement by far more than the median of its operations
does, so the medians pool operations from several processes.  A phase
prints ``ready`` once it has imported the program and built its inputs
(the parent's set-up sample), then measures for its share of
``--seconds`` and prints its raw samples as one JSON line.  Every
reported time is scaled to a nominal host speed by a fixed reference
kernel timed beside the operations (see ``calib.py``); the unscaled
figures are printed on the line before the result.

``--trace 0`` measures with no wrapper installed and prints every
end-to-end metric.  ``--trace 1`` runs the same workload with spans
around each layer's public calls and prints every per-layer metric;
spans and per-layer numbers go to ``.perfbench-out/``.

Either way the outputs are checked, and the last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
from common import SRC  # noqa: E402

#: Workload name -> module that runs it.
WORKLOADS = {
    "engine-bbw": "wl_engine",
    "engine-dense": "wl_engine",
    "serve-mixed": "wl_serve",
    "campaign-store": "wl_campaign",
}

#: End-to-end metric -> unit, as listed in ``BENCHMARK.json``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


def run_phase(args, index: int, seconds: float) -> dict:
    """Run one phase in a fresh interpreter; its samples plus ``setup_s``.

    ``setup_s`` is the time to the phase's ``ready`` line, and
    ``setup_probe`` the start-up reference timed just before the start.
    """
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--phase", str(index)]
    setup_probe = calib.start_probe()
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = child.stdout.read()
        code = child.wait()
    lines = rest.strip().splitlines()
    if code != 0 or ready.strip() != "ready" or not lines:
        raise RuntimeError(f"phase {index} failed with exit code {code}")
    samples = json.loads(lines[-1])
    samples.setdefault("setup_s", setup_s)
    samples.setdefault("setup_probe", setup_probe)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    module = importlib.import_module(WORKLOADS[args.workload])

    if args.phase is not None:
        inputs = module.prepare(args.workload, args.seed)
        print("ready", flush=True)
        samples = module.phase(args.workload, args.seed, inputs, args.phase,
                               args.seconds, bool(args.trace))
        print(json.dumps(samples), flush=True)
        return 0

    phases = [run_phase(args, index, args.seconds / module.PHASES)
              for index in range(module.PHASES)]
    outcome = module.combine(args.workload, args.seed, phases,
                             bool(args.trace))
    for line in outcome.notes:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        from layers import per_layer_metrics

        metrics = per_layer_metrics(outcome.summary)
    else:
        metrics = {name: {"value": outcome.e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
