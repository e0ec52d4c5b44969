"""Which calls a traced run wraps, and how spans reduce to per-layer metrics.

Span names are layer names.  Each workload's traced run reduces its
spans to a :class:`TraceSummary` normalised per operation (one engine
run, one service request, one cold+warm campaign round), and
:func:`per_layer_metrics` turns that into every ``per_layer`` metric of
``BENCHMARK.json``; a layer the workload never enters reads 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from common import MAX_UNATTRIBUTED, Outcome, out_path, write_json
from spans import Target, Tracer, resolve

#: Root span names: the benchmark's own per-operation spans.  Their self
#: time is the time that falls inside no layer span.
ROOTS = ("bench.run", "bench.loop", "bench.round")


def _count(name: str, of=lambda args, kwargs, result: 1):
    def counter(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count(name, of(args, kwargs, result))
    return counter


def _count_true(name: str):
    return _count(name, lambda args, kwargs, result: 1 if result else 0)


def method_targets(classes: Sequence[str], names: Sequence[str],
                   layer: str, **extra) -> List[Target]:
    """Targets for ``names`` on the class that defines each, via the MRO.

    Several concrete classes sharing one inherited definition yield one
    target on the defining class.
    """
    seen = set()
    targets = []
    for reference in classes:
        cls = resolve(reference)
        for name in names:
            owner = next(klass for klass in cls.__mro__
                         if name in vars(klass))
            key = (owner, name)
            if key in seen:
                continue
            seen.add(key)
            targets.append(Target(f"{owner.__module__}:{owner.__qualname__}",
                                  name, layer, **extra))
    return targets


_POLICIES = ("repro.core.coefficient:CoEfficientPolicy",
             "repro.baselines.static_only:StaticOnlyPolicy")
_POLICY_HOOKS = ("on_arrival", "on_cycle_start", "static_frame_for",
                 "dynamic_frame_for", "on_outcome", "compiled_round",
                 "__init__", "bind")


def engine_targets() -> List[Target]:
    """Engine layers, from policy hooks down to metric reduction."""
    steppers = ("repro.timeline.stepper:TimelineStepper",
                "repro.timeline.vectorized:VectorizedStepper")
    return [
        *method_targets(_POLICIES, _POLICY_HOOKS, "core.policy"),
        Target("repro.core.selective_slack:SelectiveSlackPlanner",
               "try_promise", "core.selective_slack",
               counter=_count_true("core.selective_slack.promised")),
        Target("repro.protocol.arrivals:ArrivalMultiplexer", "pop_until",
               "protocol.arrivals",
               counter=_count("protocol.arrivals.releases",
                              lambda args, kwargs, result: len(result))),
        *method_targets(("repro.protocol.cluster:Cluster",),
                        ("__init__", "run_for_ms", "run_until_complete",
                         "metrics"), "protocol.cluster"),
        *method_targets(steppers, ("run_static_segment",
                                   "run_dynamic_segment"),
                        "timeline", counter=_count_true("timeline.fast_path")),
        *method_targets(("repro.protocol.static_segment:StaticSegmentEngine",),
                        ("execute_cycle", "execute_slot"),
                        "protocol.static_segment"),
        *method_targets(
            ("repro.protocol.dynamic_segment:DynamicSegmentEngine",),
            ("execute_cycle",), "protocol.dynamic_segment"),
        Target("repro.faults.injector:TransientFaultInjector", "__call__",
               "faults", counter=_count("faults.draws")),
        Target("repro.faults.injector:TransientFaultInjector", "batch",
               "faults", counter=_count(
                   "faults.draws", lambda args, kwargs, result: len(result))),
        Target("repro.sim.trace:TraceRecorder", "record", "sim.trace",
               counter=_count("sim.trace.records")),
        Target("repro.sim.trace:TraceRecorder", "record_batch", "sim.trace",
               counter=_count("sim.trace.records",
                              lambda args, kwargs, result: len(args[1]))),
        Target("repro.sim.trace:TraceRecorder", "note_instance", "sim.trace"),
        Target("repro.sim.metrics:MetricsCollector", "compute",
               "sim.metrics"),
        Target("repro.packing.frame_packing", "pack_signals", "packing"),
        Target("repro.packing.frame_packing:PackingResult", "build_sources",
               "packing"),
        Target("repro.experiments.runner", "run_experiment",
               "experiments.runner"),
        Target("repro.experiments.runner", "make_policy",
               "experiments.runner"),
    ]


def _admit_ident(args, kwargs):
    return args[1]


def _loop_ident():
    """Ids ``loop-0``, ``loop-1``, ... for event-loop iterations."""
    iterations = itertools.count()
    return lambda args, kwargs: f"loop-{next(iterations)}"


def service_targets() -> List[Target]:
    """Service layers plus the event loop they run on (server process)."""
    ledger = "repro.service.ledger:SlackLedger"
    return [
        Target("asyncio.base_events:BaseEventLoop", "_run_once",
               "bench.loop", ident=_loop_ident()),
        Target("selectors:EpollSelector", "select", "service.idle"),
        Target("asyncio.events:Handle", "_run", "service.server"),
        Target("repro.service.protocol", "parse_request",
               "service.protocol.parse"),
        Target("repro.service.protocol", "encode_response",
               "service.protocol.encode"),
        Target(ledger, "admit", "service.ledger.admit",
               counter=_count("service.ledger.accepted",
                              lambda args, kwargs, result:
                              1 if result.admitted else 0),
               ident=_admit_ident),
        Target(ledger, "advance", "service.ledger.advance"),
        Target(ledger, "release", "service.ledger.release",
               ident=_admit_ident),
        Target(ledger, "reconcile", "service.ledger.reconcile"),
        Target(ledger, "stats", "service.ledger.stats"),
    ]


def campaign_targets() -> List[Target]:
    """Campaign dispatch, verify gate, seed cache and result store."""
    cache = "repro.experiments.cache:CampaignCache"
    store = "repro.results.store:ResultStore"
    return [
        Target("repro.experiments.campaign", "run_campaign",
               "experiments.campaign"),
        Target("repro.verify.verifier", "verify_experiment", "verify"),
        Target(cache, "key_for", "experiments.cache.key"),
        Target(cache, "load", "experiments.cache.load",
               counter=_count_true("experiments.cache.hits")),
        Target(cache, "store", "experiments.cache.store"),
        Target(store, "__init__", "results.store.open"),
        Target(store, "record_campaign", "results.store.record"),
    ]


@dataclass
class TraceSummary:
    """Spans of one traced run reduced per operation.

    Attributes:
        ops: Operations the traced phase completed.
        self_s: Span name -> self seconds per operation.
        calls: Span name -> outermost calls per operation (a span
            directly inside a span of the same name is not counted).
        counts: Counter name -> count per operation.
        root_s: Root span seconds per operation.
        extra: Workload-reported values taken as they are.
    """

    ops: int
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    root_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def per_op(self, ops: int) -> "TraceSummary":
        """This summary's totals divided over ``ops`` operations."""
        per = 1.0 / max(ops, 1)
        return TraceSummary(
            ops=ops,
            self_s={name: value * per for name, value in self.self_s.items()},
            calls={name: value * per for name, value in self.calls.items()},
            counts={name: value * per for name, value in self.counts.items()},
            root_s=self.root_s * per,
            extra=dict(self.extra))

    @property
    def unattributed_s(self) -> float:
        return sum(self.self_s.get(name, 0.0) for name in ROOTS)

    def attributed_split(self) -> List[Tuple[str, float]]:
        """(span name, share of root time), largest first."""
        if self.root_s <= 0:
            return []
        return sorted(((name, value / self.root_s)
                       for name, value in self.self_s.items()),
                      key=lambda item: -item[1])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Every ``per_layer`` metric: name -> (unit, value from a summary).
PER_LAYER = {
    "core.policy.self_s": ("s/op", lambda t: t.self_s.get("core.policy", 0.0)),
    "core.policy.calls": ("count/op", lambda t: t.calls.get("core.policy", 0.0)),
    "core.selective_slack.self_s": (
        "s/op", lambda t: t.self_s.get("core.selective_slack", 0.0)),
    "core.selective_slack.attempts": (
        "count/op", lambda t: t.calls.get("core.selective_slack", 0.0)),
    "core.selective_slack.promise_ratio": ("ratio", lambda t: _ratio(
        t.counts.get("core.selective_slack.promised", 0.0),
        t.calls.get("core.selective_slack", 0.0))),
    "protocol.arrivals.self_s": (
        "s/op", lambda t: t.self_s.get("protocol.arrivals", 0.0)),
    "protocol.arrivals.releases": (
        "count/op", lambda t: t.counts.get("protocol.arrivals.releases", 0.0)),
    "protocol.cluster.self_s": (
        "s/op", lambda t: t.self_s.get("protocol.cluster", 0.0)),
    "timeline.self_s": ("s/op", lambda t: t.self_s.get("timeline", 0.0)),
    "timeline.segment_calls": (
        "count/op", lambda t: t.calls.get("timeline", 0.0)),
    "timeline.fast_path_ratio": ("ratio", lambda t: _ratio(
        t.counts.get("timeline.fast_path", 0.0),
        t.calls.get("timeline", 0.0))),
    "protocol.static_segment.self_s": (
        "s/op", lambda t: t.self_s.get("protocol.static_segment", 0.0)),
    "protocol.dynamic_segment.self_s": (
        "s/op", lambda t: t.self_s.get("protocol.dynamic_segment", 0.0)),
    "faults.self_s": ("s/op", lambda t: t.self_s.get("faults", 0.0)),
    "faults.draws": ("count/op", lambda t: t.counts.get("faults.draws", 0.0)),
    "sim.trace.self_s": ("s/op", lambda t: t.self_s.get("sim.trace", 0.0)),
    "sim.trace.records": (
        "count/op", lambda t: t.counts.get("sim.trace.records", 0.0)),
    "sim.metrics.self_s": ("s/op", lambda t: t.self_s.get("sim.metrics", 0.0)),
    "packing.self_s": ("s/op", lambda t: t.self_s.get("packing", 0.0)),
    "experiments.runner.self_s": (
        "s/op", lambda t: t.self_s.get("experiments.runner", 0.0)),
    "service.protocol.parse_s": (
        "s/op", lambda t: t.self_s.get("service.protocol.parse", 0.0)),
    "service.protocol.encode_s": (
        "s/op", lambda t: t.self_s.get("service.protocol.encode", 0.0)),
    "service.protocol.calls": (
        "count/op", lambda t: t.calls.get("service.protocol.parse", 0.0)
        + t.calls.get("service.protocol.encode", 0.0)),
    "service.ledger.admit_s": (
        "s/op", lambda t: t.self_s.get("service.ledger.admit", 0.0)),
    "service.ledger.advance_s": (
        "s/op", lambda t: t.self_s.get("service.ledger.advance", 0.0)),
    "service.ledger.release_s": (
        "s/op", lambda t: t.self_s.get("service.ledger.release", 0.0)),
    "service.ledger.reconcile_s": (
        "s/op", lambda t: t.self_s.get("service.ledger.reconcile", 0.0)),
    "service.ledger.stats_s": (
        "s/op", lambda t: t.self_s.get("service.ledger.stats", 0.0)),
    "service.ledger.accept_ratio": ("ratio", lambda t: _ratio(
        t.counts.get("service.ledger.accepted", 0.0),
        t.calls.get("service.ledger.admit", 0.0))),
    "service.server.self_s": (
        "s/op", lambda t: t.self_s.get("service.server", 0.0)),
    "service.server.batches": (
        "count/op", lambda t: t.extra.get("service.server.batches", 0.0)),
    "service.server.mean_batch_size": (
        "count", lambda t: t.extra.get("service.server.mean_batch_size", 0.0)),
    "service.server.overload": (
        "count/op", lambda t: t.extra.get("service.server.overload", 0.0)),
    "service.server.busy_frac": (
        "ratio", lambda t: t.extra.get("service.server.busy_frac", 0.0)),
    "experiments.campaign.self_s": (
        "s/op", lambda t: t.self_s.get("experiments.campaign", 0.0)),
    "verify.self_s": ("s/op", lambda t: t.self_s.get("verify", 0.0)),
    "experiments.cache.key_s": (
        "s/op", lambda t: t.self_s.get("experiments.cache.key", 0.0)),
    "experiments.cache.load_s": (
        "s/op", lambda t: t.self_s.get("experiments.cache.load", 0.0)),
    "experiments.cache.store_s": (
        "s/op", lambda t: t.self_s.get("experiments.cache.store", 0.0)),
    "experiments.cache.hit_ratio": ("ratio", lambda t: _ratio(
        t.counts.get("experiments.cache.hits", 0.0),
        t.calls.get("experiments.cache.load", 0.0))),
    "results.store.open_s": (
        "s/op", lambda t: t.self_s.get("results.store.open", 0.0)),
    "results.store.record_s": (
        "s/op", lambda t: t.self_s.get("results.store.record", 0.0)),
    "results.store.rows": (
        "count/op", lambda t: t.extra.get("results.store.rows", 0.0)),
    "bench.unattributed_s": ("s/op", lambda t: t.unattributed_s),
    "bench.trace_overhead": (
        "ratio", lambda t: t.extra.get("bench.trace_overhead", 0.0)),
}


def per_layer_metrics(summary: TraceSummary) -> Dict[str, Dict[str, object]]:
    return {name: {"value": value(summary), "unit": unit}
            for name, (unit, value) in PER_LAYER.items()}


def write_spans(tracer: Tracer, workload: str, phase: int) -> None:
    tracer.write(out_path(workload, f"phase{phase}.spans.tsv.gz"))


def phase_totals(tracer: Tracer) -> Dict[str, object]:
    """A phase's span totals, JSON-ready, for :func:`merge_totals`."""
    self_s, calls, root_s = tracer.self_times()
    return {"self_s": self_s, "calls": calls, "counts": dict(tracer.counts),
            "root_s": root_s, "spans": len(tracer)}


def merge_totals(phases: Sequence[Dict[str, object]], ops: int,
                 extra: Dict[str, float]) -> TraceSummary:
    """Sum the phases' span totals and divide them over ``ops``."""
    merged = TraceSummary(ops=1, extra=dict(extra))
    for totals in phases:
        for mine, theirs in ((merged.self_s, totals["self_s"]),
                             (merged.calls, totals["calls"]),
                             (merged.counts, totals["counts"])):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0.0) + value
        merged.root_s += totals["root_s"]
    return merged.per_op(ops)


def finish_trace(outcome: Outcome, summary: TraceSummary, workload: str,
                 seed: int, spans: int) -> None:
    """Check attribution and write the per-layer numbers of a traced run."""
    outcome.summary = summary
    share = (summary.unattributed_s / summary.root_s
             if summary.root_s else 1.0)
    if share > MAX_UNATTRIBUTED:
        outcome.fail(f"unattributed root time {share:.1%} exceeds "
                     f"{MAX_UNATTRIBUTED:.0%}", operations=0)
    split = summary.attributed_split()
    write_json(out_path(workload, "layers.json"), {
        "workload": workload, "seed": seed, "ops": summary.ops,
        "spans": spans,
        "root_s_per_op": summary.root_s,
        "unattributed_share": share,
        "split": dict(split),
        "metrics": per_layer_metrics(summary),
    })
    outcome.notes.append(
        f"traced {summary.ops} ops, {spans} spans; unattributed "
        f"{share:.2%}; split " + ", ".join(
            f"{name} {value:.1%}" for name, value in split[:10]))
