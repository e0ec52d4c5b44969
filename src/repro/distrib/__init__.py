"""Distributed execution: coordinated campaigns.

``repro campaign --coordinate DIR`` (:mod:`repro.distrib.plan`,
:mod:`repro.distrib.lease`, :mod:`repro.distrib.coordinator`) lets any
number of worker processes (or hosts sharing DIR) claim seed ranges by
holding an exclusive ``flock`` on a lease file -- released by the
kernel when a worker dies -- publish results through the
content-addressed seed cache and the SQLite result store, and reduce
deterministically -- byte-identical to the in-process
``run_campaign(workers=)`` pool.
"""

from repro.distrib.lease import LeaseDirectory
from repro.distrib.plan import CampaignPlan

__all__ = [
    "CampaignPlan",
    "LeaseDirectory",
    "coordinate_campaign",
]


def __getattr__(name):  # lazy: coordinator pulls in experiments/results
    if name == "coordinate_campaign":
        from repro.distrib.coordinator import coordinate_campaign
        return coordinate_campaign
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
