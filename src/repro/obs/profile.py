"""Wall-clock section profiler for the ``--profile`` CLI flag.

Answers "where does simulation wall-clock time go?" with named,
re-entrant-safe accumulating sections.  Timing data is wall clock and
therefore excluded from deterministic snapshots; it rides in the
``profile`` section of snapshots and the ``profile`` records of
exports.  It is the one wall-clock store of :mod:`repro.obs`.
"""

from __future__ import annotations

import time
from typing import Dict, List

__all__ = ["Profiler", "format_profile"]


class _Section:
    """Context manager timing one ``with`` block into the profiler."""

    __slots__ = ("_profiler", "_name", "_start_ns")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start_ns = 0

    def __enter__(self) -> "_Section":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler.observe_ns(
            self._name, time.perf_counter_ns() - self._start_ns
        )


class Profiler:
    """Accumulates per-section wall-clock time."""

    def __init__(self) -> None:
        self._totals_ns: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}

    def section(self, name: str) -> _Section:
        """Time a ``with`` block under ``name`` (sections may repeat)."""
        return _Section(self, name)

    def observe_ns(self, name: str, elapsed_ns: int) -> None:
        self._totals_ns[name] = self._totals_ns.get(name, 0) + elapsed_ns
        self._counts[name] = self._counts.get(name, 0) + 1

    def total_ns(self, name: str) -> int:
        return self._totals_ns.get(name, 0)

    def merge(self, sections: Dict[str, Dict[str, int]]) -> None:
        """Fold another profiler's snapshot into this one (totals add)."""
        for name, data in sections.items():
            self._totals_ns[name] = (self._totals_ns.get(name, 0)
                                     + data["total_ns"])
            self._counts[name] = self._counts.get(name, 0) + data["count"]

    def rows(self) -> List[Dict[str, object]]:
        """Per-section rows sorted by total time, descending."""
        rows = []
        for name in sorted(self._totals_ns,
                           key=lambda n: -self._totals_ns[n]):
            total_ns = self._totals_ns[name]
            count = self._counts[name]
            rows.append({
                "section": name,
                "calls": count,
                "total_ms": total_ns / 1e6,
                "mean_us": total_ns / count / 1e3 if count else 0.0,
            })
        return rows

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """JSON-ready per-section totals (wall clock; non-deterministic)."""
        return {name: {"count": self._counts[name],
                       "total_ns": self._totals_ns[name]}
                for name in sorted(self._totals_ns)}


def format_profile(profiler: Profiler) -> str:
    """Human-readable profile table for terminal output."""
    rows = profiler.rows()
    if not rows:
        return "(no profile sections recorded)"
    lines = [f"{'section':<40s} {'calls':>10s} {'total_ms':>12s} "
             f"{'mean_us':>12s}"]
    for row in rows:
        lines.append(
            f"{row['section']:<40s} {row['calls']:>10d} "
            f"{row['total_ms']:>12.3f} {row['mean_us']:>12.2f}"
        )
    return "\n".join(lines)
