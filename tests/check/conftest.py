"""Fixtures for the contract checker: tiny hand-built rounds.

The rounds here are deliberately minimal -- one channel, two static
slots, no dynamic segment -- so a violation is attributable to a single
row and the shrinker's output is human-checkable.
"""

from __future__ import annotations

import pytest

from repro.protocol.channel import Channel
from repro.flexray.params import FlexRayParams
from repro.timeline.compiler import (
    SEGMENT_NIT,
    SEGMENT_STATIC,
    CompiledRound,
)


@pytest.fixture
def nit_params() -> FlexRayParams:
    """120 MT cycle: two 40 MT static slots, no minislots, 40 MT NIT."""
    return FlexRayParams(
        gd_cycle_mt=120,
        gd_static_slot_mt=40,
        g_number_of_static_slots=2,
        gd_minislot_mt=8,
        g_number_of_minislots=0,
        channel_count=1,
    )


def build_tiny_round(params: FlexRayParams, cycles: int = 2,
                     bump_first_end: bool = False) -> CompiledRound:
    """A fully owned 2-slot round of ``cycles`` identical cycles."""
    rows = []
    for cycle in range(cycles):
        base = cycle * params.gd_cycle_mt
        for slot in (1, 2):
            start = base + (slot - 1) * params.gd_static_slot_mt
            end = start + params.gd_static_slot_mt
            if bump_first_end and cycle == 0 and slot == 1:
                end += 1
            rows.append((start, end,
                         start + params.gd_action_point_offset_mt,
                         slot, 0, slot - 1, slot, SEGMENT_STATIC))
        rows.append((base + 80, base + 120, base + 80,
                     0, 0, -1, -1, SEGMENT_NIT))
    return _from_rows(params, rows, pattern_length=cycles)


def build_liar_round(params: FlexRayParams) -> CompiledRound:
    """Slot 1 owned only in even cycles, but pattern_length claims 1.

    The rows span four cycles while the round claims a one-cycle
    period, so every row past cycle 0 lies outside the round -- the
    steady-state-extrapolation lie MDL401 reports.  A NIT row closes
    each cycle whose static segment leaves a remainder.
    """
    rows = []
    static_end = params.static_segment_mt
    for cycle in range(4):
        base = cycle * params.gd_cycle_mt
        if cycle % 2 == 0:
            rows.append((base, base + params.gd_static_slot_mt,
                         base + params.gd_action_point_offset_mt,
                         1, 0, 0, 7, SEGMENT_STATIC))
        if static_end < params.gd_cycle_mt:
            rows.append((base + static_end, base + params.gd_cycle_mt,
                         base + static_end, 0, 0, -1, -1, SEGMENT_NIT))
    return _from_rows(params, rows, pattern_length=1)


def _from_rows(params: FlexRayParams, rows,
               pattern_length: int) -> CompiledRound:
    cols = list(zip(*rows))
    return CompiledRound(
        params=params, channels=[Channel.A],
        pattern_length=pattern_length,
        starts=list(cols[0]), ends=list(cols[1]), actions=list(cols[2]),
        slot_ids=list(cols[3]), channel_codes=list(cols[4]),
        owner_nodes=list(cols[5]), frame_ids=list(cols[6]),
        segment_kinds=list(cols[7]),
    )
