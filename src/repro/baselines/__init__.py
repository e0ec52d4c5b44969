"""Baseline schedulers CoEfficient is evaluated against.

- :class:`~repro.baselines.fspec.FspecPolicy` -- the paper's main
  comparator: the standard FlexRay-specification behaviour with
  best-effort redundancy and best-effort retransmission of all segments;
- :class:`~repro.baselines.static_only.StaticOnlyPolicy` -- the
  static-segment-only fault-tolerant scheduling line of related work
  ([4], [14], [15]);
- :class:`~repro.baselines.dynamic_priority.DynamicPriorityPolicy` --
  the dynamic-segment-only priority scheduling line ([16]-[18]).
"""
