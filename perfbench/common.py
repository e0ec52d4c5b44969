"""Shared pieces of the benchmark: result shape, statistics, files."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where traced runs write spans and per-layer numbers (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
#: Scratch space for campaign caches and result stores (git-ignored).
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
PINS_PATH = os.path.join(HERE, "pins.json")

#: Share of traced root time that may fall inside no layer span.
MAX_UNATTRIBUTED = 0.05


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    Attributes:
        attempted: Operations attempted (engine runs, service requests,
            campaign rounds).
        failed: Operations whose output check failed.
        problems: Human-readable reasons for every failed check.
        e2e: End-to-end metric values (untraced runs).
        summary: Traced-run reduction (traced runs).
        notes: Extra lines printed before the result line.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    summary: Optional[object] = None
    notes: List[str] = field(default_factory=list)

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(problem)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest of p99/p90/p75 with >= 10 samples beyond it.

    Falls back to the median when even p75 has fewer than ten samples
    beyond it.  Returns ``(percentile, value)``.
    """
    count = len(values)
    for q in (99.0, 90.0, 75.0):
        if count - math.ceil(q / 100.0 * count) >= 10:
            return q, nearest_rank(values, q)
    return 50.0, statistics.median(values)


def run_scale(phases: Sequence[Dict[str, object]]) -> float:
    """Host-speed factor of a whole run, from every probe of every phase.

    One factor per run, not per phase: the host's speed drifts over
    minutes but flickers within seconds, and a phase's few probes catch
    the flicker.
    """
    return calib.factor([probe for samples in phases
                         for probe in samples["probes"]])


def scaled_setup_s(phases: Sequence[Dict[str, object]]) -> float:
    """Median set-up time over phases, scaled by the median start probe."""
    return (statistics.median(samples["setup_s"] for samples in phases)
            * calib.start_factor(statistics.median(
                samples["setup_probe"] for samples in phases)))


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MiB (Linux reports kilobytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def load_pins() -> Dict[str, Dict[str, object]]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def out_path(workload: str, suffix: str) -> str:
    """Per-workload output file; the latest traced run overwrites it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, f"{workload}.{suffix}")


def write_json(path: str, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
