"""Worst-case response-time analysis for fixed-priority periodic tasks.

The standard Joseph-Pandya/Audsley recurrence:

    R_i = C_i + sum_{j < i} ceil(R_i / T_j) * C_j

iterated to a fixed point, with the blocking term ``B_i`` extended for
callers that model non-preemptive sections (a FlexRay slot in progress
cannot be preempted, so the largest lower-priority slot length is the
blocking bound).

No simulation or service module imports it: it is the analytical
oracle the tests check against (``tests/analysis/test_response_time.py``
and ``tests/service/test_config.py``, which asserts that the service's
per-channel task sets are fixed-priority schedulable).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["worst_case_response_time", "response_time_analysis",
           "is_schedulable"]

_MAX_ITERATIONS = 100_000


def worst_case_response_time(
    tasks: Sequence[Tuple[int, int]],
    index: int,
    blocking: int = 0,
) -> Optional[int]:
    """WCRT of task ``index`` under fixed-priority preemptive scheduling.

    Args:
        tasks: ``(C_j, T_j)`` in priority order (0 = highest).
        index: Task under analysis.
        blocking: Non-preemptive blocking bound B_i.

    Returns:
        The worst-case response time, or ``None`` if the recurrence
        diverges past the task's period (the task is unschedulable and
        the response time is unbounded for analysis purposes).
    """
    if not 0 <= index < len(tasks):
        raise ValueError(f"index {index} out of range")
    if blocking < 0:
        raise ValueError(f"blocking must be >= 0, got {blocking}")
    execution, period = tasks[index]
    if execution <= 0 or period <= 0:
        raise ValueError("execution and period must be positive")
    higher = tasks[:index]
    response = execution + blocking
    for __ in range(_MAX_ITERATIONS):
        interference = sum(
            math.ceil(response / t) * c for c, t in higher
        )
        candidate = execution + blocking + interference
        if candidate == response:
            return response
        # Divergence guard: once past 2x the hyper-ish bound there is no
        # fixed point below any meaningful deadline.
        if candidate > 1_000 * period:
            return None
        response = candidate
    return None


def response_time_analysis(
    tasks: Sequence[Tuple[int, int, int]],
    blocking: int = 0,
) -> Dict[int, Optional[int]]:
    """WCRT for every task of a set.

    Args:
        tasks: ``(C_i, T_i, D_i)`` in priority order.
        blocking: Uniform non-preemptive blocking bound.

    Returns:
        ``index -> response time`` (``None`` marks divergence).
    """
    pairs = [(c, t) for c, t, __ in tasks]
    return {
        index: worst_case_response_time(pairs, index, blocking)
        for index in range(len(tasks))
    }


def is_schedulable(tasks: Sequence[Tuple[int, int, int]],
                   blocking: int = 0) -> bool:
    """Whether every task's WCRT is within its deadline."""
    results = response_time_analysis(tasks, blocking)
    for index, (__, ___, deadline) in enumerate(tasks):
        response = results[index]
        if response is None or response > deadline:
            return False
    return True
