"""Distributed execution: sharded admission and coordinated campaigns.

Two pillars, one package:

- **Sharded admission** (:mod:`repro.distrib.router`,
  :mod:`repro.distrib.shard`, :mod:`repro.distrib.hashing`): ``repro
  serve --shards N`` puts a router -- the single-process service's own
  front -- in front of N shard processes.  Rendezvous hashing on the
  channel id gives every channel exactly one owner shard; each shard
  runs the solo pass restricted to its channels, and the router
  re-aggregates the pinned ``stats`` contract.
- **Coordinated campaigns** (:mod:`repro.distrib.plan`,
  :mod:`repro.distrib.lease`, :mod:`repro.distrib.coordinator`):
  ``repro campaign --coordinate DIR`` lets any number of worker
  processes (or hosts sharing DIR) claim seed ranges by holding an
  exclusive ``flock`` on a lease file -- released by the kernel when a
  worker dies -- publish results through the content-addressed seed cache and the
  SQLite result store, and reduce deterministically -- byte-identical
  to the in-process ``run_campaign(workers=)`` pool.
"""

from repro.distrib.hashing import (
    shard_channels,
    shard_for,
    shard_map,
    shard_score,
)
from repro.distrib.lease import LeaseDirectory
from repro.distrib.plan import CampaignPlan
from repro.distrib.router import ShardRouter, aggregate_stats, serve_sharded
from repro.distrib.shard import ShardProcess, ShardSpec, restrict_setup

__all__ = [
    "CampaignPlan",
    "LeaseDirectory",
    "ShardProcess",
    "ShardRouter",
    "ShardSpec",
    "aggregate_stats",
    "coordinate_campaign",
    "restrict_setup",
    "serve_sharded",
    "shard_channels",
    "shard_for",
    "shard_map",
    "shard_score",
]


def __getattr__(name):  # lazy: coordinator pulls in experiments/results
    if name == "coordinate_campaign":
        from repro.distrib.coordinator import coordinate_campaign
        return coordinate_campaign
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
