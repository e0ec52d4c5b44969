"""Trace export/import and per-message statistics.

The trace recorder is the simulator's ground truth; these helpers make
it a usable artifact outside the process:

- :func:`export_csv` / :func:`import_csv` -- lossless round-trip of all
  transmission attempts (the format a real bus analyzer would log);
- :func:`export_jsonl` -- one JSON object per attempt, for ad-hoc
  tooling;
- :func:`per_message_statistics` -- the per-message table an engineer
  asks for first: attempts, losses, retransmissions, latency spread.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass
from typing import Dict, List, TextIO

from repro.sim.trace import FrameRecord, TraceRecorder, TransmissionOutcome

__all__ = ["export_csv", "import_csv", "export_jsonl",
           "per_message_statistics", "MessageStatistics"]

_FIELDS = list(FrameRecord._fields)

#: Exported alongside the per-record fields so the backend identity of
#: a trace survives the round-trip (it is part of the canonical bytes).
_CSV_FIELDS = _FIELDS + ["protocol"]


def export_csv(trace: TraceRecorder, stream: TextIO) -> int:
    """Write every transmission attempt as CSV.

    Returns:
        The number of rows written (excluding the header).
    """
    writer = csv.DictWriter(stream, fieldnames=_CSV_FIELDS)
    writer.writeheader()
    count = 0
    protocol = getattr(trace, "protocol", "generic")
    for record in trace:
        row = {field: getattr(record, field) for field in _FIELDS}
        row["outcome"] = record.outcome.value
        row["is_retransmission"] = int(record.is_retransmission)
        row["protocol"] = protocol
        writer.writerow(row)
        count += 1
    return count


def import_csv(stream: TextIO) -> TraceRecorder:
    """Rebuild a trace from :func:`export_csv` output.

    Instance registrations are reconstructed from the records (chunk
    counts are inferred from the largest chunk index seen per
    instance), so derived statistics match the original for any trace
    where every chunk was attempted at least once.
    """
    reader = csv.DictReader(stream)
    records: List[FrameRecord] = []
    chunk_counts: Dict[tuple, int] = {}
    protocol = "generic"
    for row in reader:
        protocol = row.get("protocol", protocol) or protocol
        record = FrameRecord(
            message_id=row["message_id"],
            instance=int(row["instance"]),
            channel=row["channel"],
            slot_id=int(row["slot_id"]),
            cycle=int(row["cycle"]),
            start=int(row["start"]),
            end=int(row["end"]),
            bits=int(row["bits"]),
            payload_bits=int(row["payload_bits"]),
            segment=row["segment"],
            outcome=TransmissionOutcome(row["outcome"]),
            is_retransmission=bool(int(row["is_retransmission"])),
            generation_time=int(row["generation_time"]),
            deadline=int(row["deadline"]),
            chunk=int(row["chunk"]),
        )
        records.append(record)
        key = (record.message_id, record.instance)
        chunk_counts[key] = max(chunk_counts.get(key, 0),
                                record.chunk + 1)

    trace = TraceRecorder(protocol=protocol)
    for record in records:
        key = (record.message_id, record.instance)
        trace.note_instance(record.message_id, record.instance,
                            record.generation_time, record.deadline,
                            chunks=chunk_counts[key])
    for record in records:
        trace.record(record)
    return trace


def export_jsonl(trace: TraceRecorder, stream: TextIO) -> int:
    """Write one JSON object per attempt; returns the line count."""
    count = 0
    protocol = getattr(trace, "protocol", "generic")
    for record in trace:
        row = {field: getattr(record, field) for field in _FIELDS}
        row["outcome"] = record.outcome.value
        row["protocol"] = protocol
        stream.write(json.dumps(row) + "\n")
        count += 1
    return count


@dataclass(frozen=True)
class MessageStatistics:
    """Per-message aggregate over a trace."""

    message_id: str
    instances: int
    delivered: int
    missed: int
    attempts: int
    corrupted: int
    retransmissions: int
    mean_latency_mt: float
    max_latency_mt: int

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.instances if self.instances else 0.0


def per_message_statistics(trace: TraceRecorder) -> List[MessageStatistics]:
    """Aggregate the trace per logical message, sorted by message id."""
    attempts: Dict[str, int] = {}
    corrupted: Dict[str, int] = {}
    retransmissions: Dict[str, int] = {}
    for record in trace:
        attempts[record.message_id] = attempts.get(record.message_id, 0) + 1
        if record.outcome is TransmissionOutcome.CORRUPTED:
            corrupted[record.message_id] = \
                corrupted.get(record.message_id, 0) + 1
        if record.is_retransmission:
            retransmissions[record.message_id] = \
                retransmissions.get(record.message_id, 0) + 1

    latencies: Dict[str, List[int]] = {}
    for message_id, __, latency in trace.latencies():
        latencies.setdefault(message_id, []).append(latency)

    instances: Dict[str, int] = {}
    missed: Dict[str, int] = {}
    for (message_id, __) in trace.missed_instances():
        missed[message_id] = missed.get(message_id, 0) + 1
    for summary in trace.instance_summaries():
        instances[summary.message_id] = \
            instances.get(summary.message_id, 0) + 1

    out: List[MessageStatistics] = []
    for message_id in sorted(instances):
        samples = latencies.get(message_id, [])
        out.append(MessageStatistics(
            message_id=message_id,
            instances=instances[message_id],
            delivered=len(samples),
            missed=missed.get(message_id, 0),
            attempts=attempts.get(message_id, 0),
            corrupted=corrupted.get(message_id, 0),
            retransmissions=retransmissions.get(message_id, 0),
            mean_latency_mt=statistics.fmean(samples) if samples else 0.0,
            max_latency_mt=max(samples) if samples else 0,
        ))
    return out
