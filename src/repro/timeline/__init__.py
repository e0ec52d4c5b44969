"""Compiled communication-round timeline.

The static segment of a FlexRay cluster is strictly periodic: the
schedule repeats every ``pattern_length`` cycles, the LCM of its cycle
repetitions.  This package compiles a verified schedule into one
immutable :class:`~repro.timeline.compiler.CompiledRound` -- flat
integer-macrotick arrays over one repetition pattern plus derived
idle/slack interval tables -- and provides the engine that advances the
simulation cycle-by-cycle over those arrays:
:class:`~repro.timeline.vectorized.VectorizedStepper` settles each
segment as one phase-split batch, and delegates segments whose policy
decisions depend on outcomes (feedback ARQ) to its base class
:class:`~repro.timeline.stepper.TimelineStepper`, which walks the owned
slots one at a time and falls back to the per-slot event interpreter
when aperiodic work (retransmissions, slack stealing, dynamic backlog)
might change the outcome.
"""
