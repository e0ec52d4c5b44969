"""Minimal counterexample synthesis for ``MDL4xx`` violations.

A hyperperiod violation in a real round can involve thousands of rows;
the checker shrinks it to the smallest row subset that still refutes
the model (delta debugging on the flat arrays) and serializes it as a
canonical-JSON payload with a one-command repro:

    PYTHONPATH=src python -m repro check --round-json <path>

The payload also carries a *scenario seed* when one can be found: the
differential-fuzz generator (:mod:`repro.workloads.generator`) is
scanned for a seed whose cluster geometry matches the counterexample's
parameters, so the same failure class is reachable through the ordinary
end-to-end pipeline, not just the serialized arrays.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.protocol.channel import Channel
from repro.protocol.geometry import SegmentGeometry
from repro.results.canonical import canonical_json_bytes
from repro.timeline.compiler import CompiledRound
from repro.verify.diagnostics import Report

__all__ = [
    "PAYLOAD_FORMAT",
    "shrink_round",
    "round_to_payload",
    "payload_to_round",
    "find_matching_scenario",
    "encode_payload",
]

#: Format tag of the serialized counterexample.  ``v2`` rounds span one
#: repetition pattern; ``v1`` payloads also carried the 64-cycle
#: matrix length and are refused.
PAYLOAD_FORMAT = "repro.check.counterexample/v2"

#: How many generator seeds the geometry scan tries.
_SCENARIO_SEED_SCAN = 200

#: Row indices in a finding's location (``round.entry 3``, ``round.entry
#: 1/4 (channel code 0)``); they shift as rows are dropped.
_ENTRY_ROWS = re.compile(r"(?<=^round\.entry )\d+(/\d+)?")

_ARRAY_FIELDS = ("starts", "ends", "actions", "slot_ids", "channel_codes",
                 "owner_nodes", "frame_ids", "segment_kinds")


def _rebuild(compiled: CompiledRound,
             keep: Sequence[int]) -> Optional[CompiledRound]:
    """A copy of ``compiled`` with only the rows in ``keep``."""
    arrays = {
        name: [getattr(compiled, name)[i] for i in keep]
        for name in _ARRAY_FIELDS
    }
    try:
        return CompiledRound(
            params=compiled.params, channels=compiled.channels,
            pattern_length=compiled.pattern_length,
            **arrays,
        )
    except (ValueError, IndexError):
        return None


def shrink_round(compiled: CompiledRound, failing_rules: Sequence[str],
                 check) -> CompiledRound:
    """Shrink a violating round to a minimal failing row subset.

    Delta debugging over the row indices: repeatedly try dropping
    chunks (halving the chunk size down to single rows) while the
    predicate -- *at least one of the original findings still errors*
    -- holds.  A finding is its rule id and location, with the row
    indices of a ``round.entry`` location read as rows of the original
    round, so a candidate must keep a violation it started from, not
    one its own dropped rows created.  The result is 1-minimal in
    rows: removing any single remaining row makes every original
    finding disappear.

    Args:
        compiled: The violating round.
        failing_rules: Rule ids that fired on ``compiled``.
        check: ``CompiledRound -> Report`` callable (the structural
            model check).

    Returns:
        The shrunk round (``compiled`` itself if nothing can go).
    """
    wanted = set(failing_rules)

    def findings(rows: Sequence[int]) -> Set[Tuple[str, str]]:
        """Wanted error findings on ``rows``, located in original rows."""
        candidate = _rebuild(compiled, rows)
        if candidate is None:
            return set()
        return {(d.rule_id, _ENTRY_ROWS.sub(lambda match: "/".join(
                    str(rows[int(i)]) for i in match.group().split("/")),
                    d.location))
                for d in check(candidate)
                if d.severity.value == "error" and d.rule_id in wanted}

    keep = list(range(len(compiled.starts)))
    original_findings = findings(keep)
    if not original_findings:
        # The violation does not survive an array-only rebuild (e.g. it
        # lives in an idle_slots_override the arrays cannot carry):
        # return the round as-is rather than shrinking toward a
        # candidate that no longer fails.
        return compiled
    chunk = max(1, len(keep) // 2)
    while chunk >= 1:
        shrunk = False
        start = 0
        while start < len(keep):
            candidate_keep = keep[:start] + keep[start + chunk:]
            if original_findings & findings(candidate_keep):
                keep = candidate_keep
                shrunk = True
            else:
                start += chunk
        if chunk == 1 and not shrunk:
            break
        chunk = max(1, chunk // 2) if chunk > 1 else (1 if shrunk else 0)
    result = _rebuild(compiled, keep)
    return result if result is not None else compiled


def find_matching_scenario(params: SegmentGeometry,
                           max_seeds: int = _SCENARIO_SEED_SCAN
                           ) -> Optional[int]:
    """A generator seed whose cluster geometry matches ``params``.

    Scans :func:`repro.workloads.generator.generate_scenario` for a
    seed reproducing the counterexample's (static slots, minislots,
    channel count); ``None`` when the geometry is outside the
    generator's choice grid.
    """
    from repro.workloads.generator import generate_scenario

    for seed in range(max_seeds):
        scenario = generate_scenario(seed)
        candidate = scenario.params
        if (candidate.g_number_of_static_slots
                == params.g_number_of_static_slots
                and candidate.g_number_of_minislots
                == params.g_number_of_minislots
                and candidate.channel_count == params.channel_count):
            return seed
    return None


def round_to_payload(compiled: CompiledRound,
                     failing_rules: Sequence[str],
                     scenario_seed: Optional[int] = None,
                     out_path: str = "<counterexample.json>"
                     ) -> Dict[str, object]:
    """Serialize a (shrunk) round as a self-contained counterexample."""
    return {
        "format": PAYLOAD_FORMAT,
        "rules": sorted(set(failing_rules)),
        "params": dataclasses.asdict(compiled.params),
        "channels": [channel.name for channel in compiled.channels],
        "pattern_length": compiled.pattern_length,
        "arrays": {name: list(getattr(compiled, name))
                   for name in _ARRAY_FIELDS},
        "scenario_seed": scenario_seed,
        "repro_command": f"PYTHONPATH=src python -m repro check "
                         f"--round-json {out_path}",
    }


def payload_to_round(payload: Dict[str, object]) -> CompiledRound:
    """Reconstruct a :class:`CompiledRound` from a serialized payload."""
    if payload.get("format") != PAYLOAD_FORMAT:
        raise ValueError(
            f"not a counterexample payload (format "
            f"{payload.get('format')!r}, expected {PAYLOAD_FORMAT!r})"
        )
    params = SegmentGeometry(**payload["params"])  # type: ignore[arg-type]
    channels = [Channel[name] for name in payload["channels"]]  # type: ignore[union-attr]
    arrays: Dict[str, List[int]] = payload["arrays"]  # type: ignore[assignment]
    return CompiledRound(
        params=params, channels=channels,
        pattern_length=int(payload["pattern_length"]),  # type: ignore[arg-type]
        **{name: arrays[name] for name in _ARRAY_FIELDS},
    )


def encode_payload(payload: Dict[str, object]) -> bytes:
    """Canonical-JSON encoding (stable bytes, digest-friendly)."""
    return canonical_json_bytes(payload) + b"\n"
