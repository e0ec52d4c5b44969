#!/usr/bin/env python3
"""Regenerate ``pins.json``: the reference outputs the benchmark checks.

- engine workloads: the trace digest of the ``interpreter`` oracle on
  the workload's inputs at each pinned seed;
- ``serve-mixed``: the verdict digest of each of the first
  ``SERVE_BLOCKS`` blocks of the seeded request stream, as the service
  answers them.

Run from the repository root (takes several minutes)::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import PINS_PATH, SRC, write_json  # noqa: E402

#: Seeds whose reference outputs are pinned.
SEEDS = range(1, 11)
#: Verdict blocks pinned per serve seed (well past what one run reaches).
SERVE_BLOCKS = 128


def main() -> int:
    sys.path.insert(0, SRC)
    import wl_engine
    import wl_serve

    pins = {}
    for workload in ("engine-bbw", "engine-dense"):
        pins[workload] = {str(seed): wl_engine.oracle_digest(workload, seed)
                          for seed in SEEDS}
        print(workload, "pinned", flush=True)
    pins["serve-mixed"] = {}
    for seed in SEEDS:
        pins["serve-mixed"][str(seed)] = wl_serve.pin_digests(seed,
                                                              SERVE_BLOCKS)
        print("serve-mixed seed", seed, "pinned", flush=True)
    write_json(PINS_PATH, pins)
    return 0


if __name__ == "__main__":
    sys.exit(main())
