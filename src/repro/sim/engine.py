"""The simulation engine modes.

The FlexRay cluster is time-triggered, so it advances cycle by cycle
rather than through a general event list.  Time is an integer number of
*macroticks* (the FlexRay time base); integers remove floating-point
drift over long horizons.  :class:`EngineMode` picks how each cycle is
evaluated.
"""

from __future__ import annotations

import enum
from typing import Union

__all__ = ["EngineMode"]


class EngineMode(enum.Enum):
    """How the simulation advances time.

    INTERPRETER is the per-slot oracle: every slot of every cycle is a
    separate query.  VECTORIZED (the default) walks the compiled
    :class:`~repro.timeline.compiler.CompiledRound` and settles each
    segment of each cycle as one phase-split batch: all policy queries
    first, then the fault verdicts from a pre-drawn per-channel column,
    one block trace append and the outcome replay.  Segments whose
    policy cannot promise outcome-free decisions (feedback ARQ) are
    delegated to the per-slot
    :class:`~repro.timeline.stepper.TimelineStepper` and, through it,
    the interpreter.  Both modes produce byte-identical traces; the
    differential tests in ``tests/sim/test_trace_equivalence.py`` and
    the fuzz suite in ``tests/sim/test_engine_fuzz.py`` prove it.
    """

    INTERPRETER = "interpreter"
    VECTORIZED = "vectorized"

    @classmethod
    def parse(cls, value: Union[str, "EngineMode", None]) -> "EngineMode":
        """Coerce a CLI/env string (or an existing mode) to a mode."""
        if value is None:
            return cls.VECTORIZED
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            names = ", ".join(mode.value for mode in cls)
            raise ValueError(
                f"unknown engine mode {value!r} (expected one of: {names})"
            ) from None
