"""Fixed-priority schedulability analysis substrate.

The classical real-time analysis toolkit the paper's scheduling theory
(Section III) builds on:

- :mod:`repro.analysis.response_time` -- worst-case response-time
  analysis for hard periodic tasks.

The static idle-slot table the FlexRay-level slack stealer consults is
the compiled round's own (:class:`~repro.timeline.compiler.CompiledRound`
``idle_slots``/``idle_slots_between``).
"""
