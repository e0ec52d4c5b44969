"""Unit tests for metric computation."""

import dataclasses
import math

import pytest

from repro.core.mode_change import ModeChangeController
from repro.experiments.runner import run_experiment
from repro.protocol.backend import get_backend
from repro.protocol.signal import Signal
from repro.sim.metrics import LatencyStats, MetricsCollector, SimulationMetrics
from repro.sim.trace import TraceRecorder, TransmissionOutcome, trace_digest
from repro.workloads.acc import acc_signals
from repro.workloads.bbw import bbw_signals
from repro.workloads.generator import generate_scenario
from repro.workloads.sae import sae_aperiodic_signals
from repro.workloads.synthetic import synthetic_signals

from tests.sim.test_trace import make_record
from tests.sim.test_trace_equivalence import GOLDEN_DIGESTS


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_macroticks([], 1.0)
        assert stats.count == 0
        assert stats.mean_ms == 0.0

    def test_single_sample(self):
        stats = LatencyStats.from_macroticks([1500], 1.0)
        assert stats.count == 1
        assert stats.mean_ms == pytest.approx(1.5)
        assert stats.median_ms == pytest.approx(1.5)
        assert stats.maximum_ms == pytest.approx(1.5)

    def test_mean_and_median(self):
        stats = LatencyStats.from_macroticks([1000, 2000, 6000], 1.0)
        assert stats.mean_ms == pytest.approx(3.0)
        assert stats.median_ms == pytest.approx(2.0)

    def test_p95_below_max(self):
        samples = list(range(0, 100_000, 1000))
        stats = LatencyStats.from_macroticks(samples, 1.0)
        assert stats.p95_ms <= stats.maximum_ms
        assert stats.p95_ms >= stats.median_ms

    def test_macrotick_scaling(self):
        stats = LatencyStats.from_macroticks([1000], 2.0)
        assert stats.mean_ms == pytest.approx(2.0)


class TestMetricsCollector:
    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            MetricsCollector(macrotick_us=0.0)
        with pytest.raises(ValueError):
            MetricsCollector(macrotick_us=1.0, channel_count=0)

    def test_rejects_bad_horizon(self):
        collector = MetricsCollector(1.0)
        with pytest.raises(ValueError):
            collector.compute(TraceRecorder(), 0)

    def test_empty_trace(self):
        collector = MetricsCollector(1.0)
        metrics = collector.compute(TraceRecorder(), 1000)
        assert metrics.running_time_ms == 0.0
        assert metrics.bandwidth_utilization == 0.0
        assert metrics.deadline_miss_ratio == 0.0
        assert metrics.efficiency == 0.0

    def test_utilization_counts_useful_payload(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 0, 10_000)
        trace.record(make_record(start=0, duration=40, payload=256, bits=320))
        collector = MetricsCollector(1.0, channel_count=2)
        metrics = collector.compute(trace, 1000)
        expected = (40 * 256 / 320) / 2000
        assert metrics.bandwidth_utilization == pytest.approx(expected)

    def test_redundant_copy_not_double_counted(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 0, 10_000)
        trace.record(make_record(channel="A", start=0, duration=40))
        trace.record(make_record(channel="B", start=0, duration=40))
        collector = MetricsCollector(1.0, channel_count=2)
        metrics = collector.compute(trace, 1000)
        useful = (40 * 256 / 320) / 2000
        assert metrics.bandwidth_utilization == pytest.approx(useful)
        assert metrics.gross_utilization == pytest.approx(80 / 2000)

    def test_corrupted_occupies_but_not_useful(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 0, 10_000)
        trace.record(make_record(outcome=TransmissionOutcome.CORRUPTED,
                                 start=0, duration=40))
        collector = MetricsCollector(1.0, channel_count=2)
        metrics = collector.compute(trace, 1000)
        assert metrics.bandwidth_utilization == 0.0
        assert metrics.gross_utilization == pytest.approx(40 / 2000)
        assert metrics.corrupted_attempts == 1

    def test_running_time_all_delivered(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 0, 10_000)
        trace.record(make_record(start=100, duration=40))
        collector = MetricsCollector(1.0)
        metrics = collector.compute(trace, 1000)
        assert metrics.running_time_ms == pytest.approx(0.14)
        assert metrics.last_delivery_ms == pytest.approx(0.14)

    def test_running_time_infinite_when_undelivered(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 0, 10_000)
        trace.note_instance("m", 1, 0, 10_000)
        trace.record(make_record(instance=0, start=100, duration=40))
        collector = MetricsCollector(1.0)
        metrics = collector.compute(trace, 1000)
        assert math.isinf(metrics.running_time_ms)
        assert metrics.last_delivery_ms == pytest.approx(0.14)

    def test_miss_ratio(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 0, 50)   # will be late
        trace.note_instance("m", 1, 0, 10_000)
        trace.record(make_record(instance=0, start=100, duration=40))
        trace.record(make_record(instance=1, start=200, duration=40))
        collector = MetricsCollector(1.0)
        metrics = collector.compute(trace, 1000)
        assert metrics.deadline_miss_ratio == pytest.approx(0.5)

    def test_latency_split_by_first_segment(self):
        trace = TraceRecorder()
        trace.note_instance("s", 0, 0, 10_000)
        trace.note_instance("d", 0, 0, 10_000)
        trace.record(make_record(message_id="s", segment="static",
                                 start=100, duration=40))
        trace.record(make_record(message_id="d", segment="dynamic",
                                 start=200, duration=40))
        collector = MetricsCollector(1.0)
        metrics = collector.compute(trace, 1000)
        assert metrics.static_latency.count == 1
        assert metrics.dynamic_latency.count == 1

    def test_retransmission_counted(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 0, 10_000)
        trace.record(make_record(retransmission=True))
        collector = MetricsCollector(1.0)
        metrics = collector.compute(trace, 1000)
        assert metrics.retransmission_attempts == 1

    def test_utilization_capped_at_one(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 0, 10_000)
        trace.record(make_record(start=0, duration=5000, payload=320,
                                 bits=320))
        collector = MetricsCollector(1.0, channel_count=1)
        metrics = collector.compute(trace, 1000)
        assert metrics.bandwidth_utilization <= 1.0
        assert metrics.gross_utilization <= 1.0

    def test_summary_row_keys(self):
        collector = MetricsCollector(1.0)
        metrics = collector.compute(TraceRecorder(), 1000)
        row = metrics.summary_row()
        assert set(row) == {
            "running_time_ms", "bandwidth_utilization", "efficiency",
            "static_latency_ms", "dynamic_latency_ms",
            "deadline_miss_ratio",
        }


# ----------------------------------------------------------------------
# The one-walk reduction against the three-pass reference
# ----------------------------------------------------------------------

def reference_metrics(trace, horizon_mt, macrotick_us=1.0, channel_count=2):
    """A record walk: the reduction the trace now keeps running.

    One walk over the records for bandwidth, attempt counts and the
    earliest delivery of every ``(message, instance, chunk)``, a second
    for the segment of each instance's first attempt, then sorted
    instance walks for latencies, misses and the last delivery.  Only
    the instance set (identity, generation time, deadline) is read from
    the recorder, through ``instance_summaries()``; every delivery time
    is derived from the records.  An instance is delivered once each
    chunk of its message has a delivered copy, at the time the last
    chunk landed; a message's chunk count is one more than the highest
    chunk index among its records, so every chunk of a multi-chunk
    message must be attempted at least once somewhere in the trace.
    """
    total_medium_mt = horizon_mt * channel_count
    useful_mt = 0
    occupied_mt = 0
    corrupted = 0
    retransmissions = 0
    attempts = 0
    chunk_delivered_at = {}
    chunk_count = {}
    for record in trace:
        attempts += 1
        duration = record.end - record.start
        occupied_mt += duration
        chunk_count[record.message_id] = max(
            chunk_count.get(record.message_id, 1), record.chunk + 1)
        if record.is_retransmission:
            retransmissions += 1
        if record.outcome is TransmissionOutcome.CORRUPTED:
            corrupted += 1
        elif record.outcome is TransmissionOutcome.DELIVERED:
            key = (record.message_id, record.instance, record.chunk)
            earlier = chunk_delivered_at.get(key)
            if earlier is None:
                chunk_delivered_at[key] = record.end
                if record.bits > 0:
                    useful_mt += duration * record.payload_bits / record.bits
            elif record.end < earlier:
                chunk_delivered_at[key] = record.end

    def delivered_at(message_id, instance):
        times = [chunk_delivered_at.get((message_id, instance, chunk))
                 for chunk in range(chunk_count.get(message_id, 1))]
        return None if None in times else max(times)

    instances = sorted(
        ((s.message_id, s.instance), s.generation_time, s.deadline,
         delivered_at(s.message_id, s.instance))
        for s in trace.instance_summaries())
    latencies = [(key, at - generation)
                 for key, generation, __, at in instances if at is not None]
    missed = sum(1 for __, ___, deadline, at in instances
                 if at is None or at > deadline)
    times = [at for __, ___, ____, at in instances if at is not None]
    last_delivery = max(times) if times else None
    delivered = len(times)

    segment_of_instance = {}
    for record in trace:
        segment_of_instance.setdefault((record.message_id, record.instance),
                                       record.segment)
    static_samples, dynamic_samples = [], []
    for key, latency in latencies:
        if segment_of_instance.get(key, "static") == "dynamic":
            dynamic_samples.append(latency)
        else:
            static_samples.append(latency)

    produced = len(instances)
    last_delivery_ms = (0.0 if last_delivery is None
                        else last_delivery * macrotick_us / 1000.0)
    if produced == 0:
        running_time_ms = 0.0
    elif delivered < produced or last_delivery is None:
        running_time_ms = float("inf")
    else:
        running_time_ms = last_delivery_ms
    return SimulationMetrics(
        horizon_mt=horizon_mt,
        macrotick_us=macrotick_us,
        running_time_ms=running_time_ms,
        last_delivery_ms=last_delivery_ms,
        bandwidth_utilization=min(1.0, useful_mt / total_medium_mt),
        gross_utilization=min(1.0, occupied_mt / total_medium_mt),
        static_latency=LatencyStats.from_macroticks(static_samples,
                                                    macrotick_us),
        dynamic_latency=LatencyStats.from_macroticks(dynamic_samples,
                                                     macrotick_us),
        deadline_miss_ratio=(missed / produced) if produced else 0.0,
        produced_instances=produced,
        delivered_instances=delivered,
        total_attempts=attempts,
        corrupted_attempts=corrupted,
        retransmission_attempts=retransmissions,
    )


def _multi_chunk_out_of_order(trace):
    trace.note_instance("big", 0, 0, 900, chunks=3)
    trace.record(make_record(message_id="big", chunk=2, start=300,
                             generation=0, deadline=900))
    trace.record(make_record(message_id="big", chunk=0, start=500,
                             channel="B", generation=0, deadline=900))
    # A later duplicate of chunk 0 with an earlier end improves it.
    trace.record(make_record(message_id="big", chunk=0, start=120,
                             generation=0, deadline=900, slot=3))
    trace.record(make_record(message_id="big", chunk=1, start=700,
                             generation=0, deadline=900))


def _never_transmitted(trace):
    trace.note_instance("m", 0, 50, 500)
    trace.record(make_record(start=100))
    trace.note_instance("quiet", 0, 10, 400)
    trace.note_instance("quiet", 1, 410, 800, chunks=2)


def _static_first_dynamic_retry(trace):
    trace.note_instance("s", 0, 50, 5000)
    trace.record(make_record(message_id="s", start=100, slot=2,
                             outcome=TransmissionOutcome.CORRUPTED,
                             deadline=5000))
    trace.record(make_record(message_id="s", start=900, segment="dynamic",
                             retransmission=True, slot=12, deadline=5000))
    trace.note_instance("d", 0, 50, 5000)
    trace.record(make_record(message_id="d", start=950, segment="dynamic",
                             slot=13, deadline=5000))


def _zero_bit_records(trace):
    # Delivered exactly at its deadline (60): on time.
    trace.note_instance("z", 0, 0, 60)
    trace.record(make_record(message_id="z", start=20, bits=0, payload=0,
                             generation=0, deadline=60))
    trace.note_instance("z", 1, 100, 200)
    trace.record(make_record(message_id="z", instance=1, start=180, bits=0,
                             payload=8, generation=100, deadline=200))
    trace.record(make_record(message_id="z", instance=1, start=300,
                             channel="B", generation=100, deadline=200))


def _everything(trace):
    for build in (_multi_chunk_out_of_order, _never_transmitted,
                  _static_first_dynamic_retry, _zero_bit_records):
        build(trace)


class TestOneWalkReduction:
    @pytest.mark.parametrize("build", [
        lambda trace: None, _multi_chunk_out_of_order, _never_transmitted,
        _static_first_dynamic_retry, _zero_bit_records, _everything,
    ], ids=["empty", "multi-chunk-out-of-order", "never-transmitted",
            "static-first-dynamic-retry", "zero-bit-records", "all"])
    @pytest.mark.parametrize("channel_count", (1, 2))
    def test_matches_reference(self, build, channel_count):
        trace = TraceRecorder()
        build(trace)
        collector = MetricsCollector(1.25, channel_count=channel_count)
        assert collector.compute(trace, 4000) == reference_metrics(
            trace, 4000, macrotick_us=1.25, channel_count=channel_count)


def _engine_scenarios(backend, tiny_signals):
    """The engine-equivalence scenarios, at the same inputs."""
    backend_ = get_backend(backend)

    def small(minislots=40):
        return backend_.scenario_geometry(static_slots=10,
                                          minislots=minislots,
                                          channel_count=2)

    controller = ModeChangeController(small(), tiny_signals)
    assert controller.try_admit(Signal(
        name="mc-new", ecu=3, period_ms=1.6, offset_ms=0.4,
        deadline_ms=1.6, size_bits=160)).admitted
    return {
        "bbw-faulty-completion": dict(
            params=backend_.case_study_params("bbw"), scheduler="coefficient",
            periodic=bbw_signals(), ber=1e-4, seed=7, duration_ms=None,
            instance_limit=4),
        "acc-fspec-faulty": dict(
            params=backend_.case_study_params("acc"), scheduler="fspec",
            periodic=acc_signals(), ber=1e-5, seed=11, duration_ms=60.0),
        "synthetic-with-aperiodics": dict(
            params=backend_.dynamic_preset(100),
            scheduler="dynamic-priority",
            periodic=synthetic_signals(12, seed=3, max_size_bits=216),
            aperiodic=sae_aperiodic_signals(count=16), ber=0.0, seed=23,
            duration_ms=50.0, drop_expired_dynamic=False),
        "static-only-zero-minislots": dict(
            params=small(minislots=0), scheduler="static-only",
            periodic=tiny_signals, ber=0.0, seed=5, duration_ms=20.0),
        "post-mode-change": dict(
            params=small(), scheduler="coefficient",
            periodic=controller.signals, ber=2e-6, seed=17,
            duration_ms=40.0),
    }


@pytest.mark.parametrize("backend", ("flexray", "ttethernet"))
@pytest.mark.parametrize("scenario", ("bbw-faulty-completion",
                                      "acc-fspec-faulty",
                                      "synthetic-with-aperiodics",
                                      "static-only-zero-minislots",
                                      "post-mode-change"))
def test_engine_scenarios_match_reference(backend, scenario,
                                          tiny_periodic_signals):
    result = run_experiment(
        **_engine_scenarios(backend, tiny_periodic_signals)[scenario])
    trace = result.cluster.trace
    assert len(trace) > 0
    params = result.cluster.params
    assert result.metrics == reference_metrics(
        trace, result.metrics.horizon_mt,
        macrotick_us=params.gd_macrotick_us,
        channel_count=params.channel_count)


def exact_fields(metrics):
    """Every metric field, floats as their exact hex form."""
    return [value.hex() if isinstance(value, float) else value
            for value in _flatten(dataclasses.astuple(metrics))]


def _flatten(values):
    for value in values:
        if isinstance(value, tuple):
            yield from _flatten(value)
        else:
            yield value


@pytest.mark.parametrize("engine_mode", ("interpreter", "vectorized"))
@pytest.mark.parametrize("backend", ("flexray", "ttethernet"))
@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS["flexray"]))
def test_golden_scenarios_match_reference_walk(seed, backend, engine_mode):
    """The running reduction equals a walk over the records, bit for
    bit, on the golden-digest scenarios of both engines."""
    scenario = generate_scenario(seed, backend)
    result = run_experiment(engine_mode=engine_mode,
                            **scenario.experiment_kwargs())
    trace = result.cluster.trace
    assert trace_digest(trace) == GOLDEN_DIGESTS[backend][seed]
    params = result.cluster.params
    reference = reference_metrics(
        trace, result.metrics.horizon_mt,
        macrotick_us=params.gd_macrotick_us,
        channel_count=params.channel_count)
    assert exact_fields(result.metrics) == exact_fields(reference)
