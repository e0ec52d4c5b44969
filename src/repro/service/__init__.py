"""Online admission-control service (``repro serve``).

The paper's online mechanism -- acceptance testing of hard aperiodic
retransmissions against the static schedule's precomputed slack
(Section III-C) -- packaged as a long-running, observable network
service instead of an offline library call:

- :mod:`repro.service.config` -- load a cluster configuration through
  the static verification gate (which always runs) and derive
  per-channel periodic task sets;
- :mod:`repro.service.ledger` -- the incremental slack accountant: a
  guaranteed-capacity table from the slack stealer plus demand-criterion
  admission, updated on admit/release/expire instead of recomputed,
  with full-recompute reconciliation;
- :mod:`repro.service.protocol` -- the JSON-lines request/response
  wire format;
- :mod:`repro.service.server` -- the asyncio TCP server: per-tick
  request batching, bounded queue with explicit overload replies,
  per-request timeouts, graceful drain on SIGTERM (recording the final
  counters into a result store when given one);
- :mod:`repro.service.client` -- a pipelining asyncio client;
- :mod:`repro.service.loadgen` -- deterministic seeded Poisson load
  generator with latency/throughput/acceptance-ratio reports.

Everything is stdlib + the repro core; see ``docs/service.md`` for the
protocol reference.
"""
