"""Orchestration of the contract checker (the ``repro check`` engine).

Three entry points compose the rule families:

- :func:`check_sources` -- parse the source roots once, run the
  per-file determinism rules (``DET1xx``) over every module, then
  build the AST call graph and prove/refute every policy's
  ``decisions_are_outcome_free()`` promise (``EFF3xx``).
- :func:`check_workload` -- build the offline artifacts of one
  workload exactly as :func:`repro.verify.verifier.verify_experiment`
  does (same packer, schedule builder, round compiler, Theorem-1
  planner inputs), then model-check the compiled round over the full
  hyperperiod (``MDL4xx``).  On a structural violation the round is
  shrunk to a minimal counterexample and serialized next to the
  diagnostics (``MDL405``).
- :func:`check_round` -- model-check a round deserialized from a
  counterexample payload (the ``--round-json`` repro path).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.check.callgraph import build_project
from repro.check.counterexample import (
    encode_payload,
    find_matching_scenario,
    payload_to_round,
    round_to_payload,
    shrink_round,
)
from repro.check.determinism import check_file
from repro.check.frontend import read_sources
from repro.check.model_checker import (
    STRUCTURAL_RULES,
    check_hyperperiod_model,
    theorem1_inputs,
)
from repro.check.policy_proofs import check_policy_promises
from repro.timeline.compiler import CompiledRound
from repro.verify.analysis_checks import check_retransmission_plan
from repro.verify.diagnostics import Diagnostic, Report, Severity

__all__ = ["check_sources", "check_workload", "check_round",
           "default_source_roots"]


def default_source_roots() -> Sequence[Path]:
    """The package root the checker analyzes by default."""
    return [Path(__file__).resolve().parent.parent]


def check_sources(
    roots: Optional[Sequence[Path]] = None,
    extra_sources: Optional[Dict[str, Tuple[str, str]]] = None,
) -> Report:
    """Run the source rules over the tree: ``DET1xx`` per file, then
    ``EFF3xx`` over the call graph, from one parse.

    Args:
        roots: Package roots (default: the ``repro`` package itself).
        extra_sources: ``module_name -> (display_path, source)`` of
            additional in-memory modules (the refutation tests feed a
            deliberately impure policy this way).
    """
    sources = read_sources(
        [str(Path(root).resolve())
         for root in roots or default_source_roots()],
        extra_sources=extra_sources)
    report = Report()
    for source in sources:
        report.extend(check_file(source))
    report.merge(check_policy_promises(build_project(sources)))
    return report


def _synthesize_counterexample(
    compiled: CompiledRound,
    report: Report,
    counterexample_dir: Optional[Path],
    label: str,
) -> None:
    """Shrink a structurally violating round and serialize the repro."""
    failing = sorted(
        {d.rule_id for d in report.errors
         if d.rule_id in STRUCTURAL_RULES}
    )
    if not failing or counterexample_dir is None:
        return
    shrunk = shrink_round(
        compiled, failing,
        lambda candidate: check_hyperperiod_model(candidate),
    )
    seed = find_matching_scenario(compiled.params)
    out_path = Path(counterexample_dir) / f"counterexample-{label}.json"
    payload = round_to_payload(shrunk, failing, scenario_seed=seed,
                               out_path=str(out_path))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(encode_payload(payload))
    seed_note = (f"; scenario seed {seed} reproduces the geometry "
                 f"end-to-end" if seed is not None else "")
    report.add(Diagnostic(
        rule_id="MDL405", severity=Severity.INFO,
        location=str(out_path),
        message=f"shrunk the violating round from {len(compiled)} to "
                f"{len(shrunk)} row(s); repro: "
                f"{payload['repro_command']}{seed_note}",
        fix_hint="",
    ))


def check_workload(
    params,
    periodic=None,
    aperiodic=None,
    ber: float = 1e-7,
    reliability_goal: float = 0.99999,
    time_unit_ms: float = 1000.0,
    counterexample_dir: Optional[Path] = None,
    label: str = "round",
) -> Report:
    """Model-check the compiled round of one workload configuration.

    Builds the schedule, compiled round and Theorem-1 plan exactly the
    way the verifier's pre-campaign gate does, then runs the
    hyperperiod model checker with full reliability inputs.
    """
    from repro.protocol.channel import Channel
    from repro.packing.frame_packing import pack_signals
    from repro.timeline.compiler import compile_round

    report = Report()
    workload = None
    if periodic is not None and aperiodic is not None:
        workload = periodic.merged_with(aperiodic)
    else:
        workload = periodic or aperiodic
    if workload is None:
        report.add(Diagnostic(
            rule_id="MDL401", severity=Severity.ERROR,
            location=label,
            message="workload has no signals; nothing to compile",
            fix_hint="supply a periodic and/or aperiodic signal set",
        ))
        return report
    try:
        packing = pack_signals(workload, params)
        table = params.build_schedule(packing.static_frames())
    except (ValueError, RuntimeError) as error:
        report.add(Diagnostic(
            rule_id="MDL401", severity=Severity.ERROR,
            location=label,
            message=f"offline construction failed: {error}",
            fix_hint="run `repro verify-config` for the FRC/FRS "
                     "diagnosis",
        ))
        return report
    channels = [Channel.A]
    if params.channel_count == 2:
        channels.append(Channel.B)
    compiled = compile_round(table, params, channels)
    __, inputs = theorem1_inputs(packing, params, ber, reliability_goal,
                                 time_unit_ms)
    result = check_hyperperiod_model(compiled, **inputs)
    _synthesize_counterexample(compiled, result, counterexample_dir,
                               label)
    report.merge(result)
    # MDL404 proves the plan fundable; the goal product is ANA204's.
    report.merge(check_retransmission_plan(
        inputs["failure_probabilities"], inputs["instances"],
        inputs["budgets"], reliability_goal))
    return report


def check_round(
    payload: Dict[str, object],
    counterexample_dir: Optional[Path] = None,
    label: str = "round-json",
) -> Report:
    """Model-check a round deserialized from a counterexample payload."""
    try:
        compiled = payload_to_round(payload)
    except (KeyError, TypeError, ValueError) as error:
        report = Report()
        report.add(Diagnostic(
            rule_id="MDL401", severity=Severity.ERROR,
            location=label,
            message=f"cannot reconstruct a round from the payload: "
                    f"{error}",
            fix_hint="the file must be a repro.check counterexample "
                     "payload",
        ))
        return report
    report = check_hyperperiod_model(compiled)
    _synthesize_counterexample(compiled, report, counterexample_dir,
                               label)
    return report
