"""Fixed-priority schedulability analysis substrate.

The classical real-time analysis toolkit the paper's scheduling theory
(Section III) builds on:

- :mod:`repro.analysis.response_time` -- worst-case response-time
  analysis for hard periodic tasks.

The static idle-slot table the FlexRay-level slack stealer consults is
the compiled round's own (:class:`~repro.timeline.compiler.CompiledRound`
``idle_slots``/``idle_slots_between``).
"""

from repro.analysis.dynamic_response import (
    DynamicMessageSpec,
    dynamic_segment_schedulable,
    dynamic_worst_case_delay_cycles,
)
from repro.analysis.response_time import (
    is_schedulable,
    response_time_analysis,
    worst_case_response_time,
)
from repro.analysis.sensitivity import (
    aperiodic_breakdown_factor,
    bisect_breakdown,
    scale_aperiodic_load,
)
from repro.analysis.validator import MessageValidation, validate_schedule

__all__ = [
    "DynamicMessageSpec",
    "MessageValidation",
    "aperiodic_breakdown_factor",
    "bisect_breakdown",
    "dynamic_segment_schedulable",
    "dynamic_worst_case_delay_cycles",
    "scale_aperiodic_load",
    "validate_schedule",
    "is_schedulable",
    "response_time_analysis",
    "worst_case_response_time",
]
