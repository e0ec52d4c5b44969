"""Orchestration of the contract checker (the ``repro check`` engine).

The per-workload pass of ``repro check`` is
:func:`repro.verify.verifier.verify_experiment`; this module adds:

- :func:`check_sources` -- parse the source roots once, run the
  per-file determinism rules (``DET1xx``) over every module, then
  build the AST call graph and prove/refute every policy's
  ``decisions_are_outcome_free()`` promise (``EFF3xx``).
- :func:`portable_report` -- the same findings with the scanned
  roots' directories stripped from their paths (what ``repro check
  --store`` records, so one tree gets one report id from any checkout).
- :func:`check_round` -- model-check a round deserialized from a
  counterexample payload (the ``--round-json`` repro path).
- :func:`write_counterexample` -- on a structural ``MDL`` violation,
  shrink the round to a minimal counterexample and serialize it next
  to the diagnostics (``MDL405``).
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

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
)
from repro.check.policy_proofs import check_policy_promises
from repro.timeline.compiler import CompiledRound
from repro.verify.diagnostics import Diagnostic, Report, Severity

__all__ = ["check_sources", "check_round", "write_counterexample",
           "default_source_roots", "portable_report"]


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


def portable_report(report: Report,
                    roots: Optional[Sequence[Path]] = None) -> Report:
    """``report`` with paths relative to the directory holding each root.

    :func:`check_sources` locates findings by absolute path
    (``<checkout>/src/repro/core/queueing.py:480``); this strips every
    root's parent directory from locations, messages and hints
    (``repro/core/queueing.py:480``), so two checkouts of one tree
    produce equal reports.  ``roots`` must be the ones the report was
    checked with (default: the ``repro`` package itself).
    """
    prefixes = [str(Path(root).resolve().parent) + os.sep
                for root in roots or default_source_roots()]

    def strip(text: str) -> str:
        for prefix in prefixes:
            text = text.replace(prefix, "")
        return text

    portable = Report()
    portable.extend(
        replace(diagnostic, location=strip(diagnostic.location),
                message=strip(diagnostic.message),
                fix_hint=strip(diagnostic.fix_hint))
        for diagnostic in report)
    return portable


def write_counterexample(
    report: Report,
    build_round: Callable[[], CompiledRound],
    counterexample_dir: Optional[Path],
    label: str,
) -> None:
    """Shrink a structurally violating round and serialize the repro.

    Does nothing unless ``report`` carries a structural ``MDL`` error;
    only then is ``build_round`` called for the round to shrink.  The
    ``MDL405`` finding naming the written file is added to ``report``.
    """
    failing = sorted(
        {d.rule_id for d in report.errors
         if d.rule_id in STRUCTURAL_RULES}
    )
    if not failing or counterexample_dir is None:
        return
    compiled = build_round()
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
    write_counterexample(report, lambda: compiled, counterexample_dir,
                         label)
    return report
