"""Simulation-free static verification of FlexRay configurations.

The cheap gate in front of expensive runs: every invariant the
simulator would only violate at runtime -- slot-table consistency,
cycle arithmetic, slack-table shape, busy-period convergence
preconditions, Theorem-1 feasibility -- is checked offline here and
reported as structured :class:`~repro.verify.diagnostics.Diagnostic`
records (stable rule id, severity, location, fix hint).

Entry points:

- :func:`verify_experiment` -- build-and-check everything one
  experiment configuration implies (the per-workload pass of
  ``repro check`` and the ``run_campaign(validate=True)`` gate);
- the ``check_*`` rule groups -- check the artifacts you already have;
- :data:`VERIFY_RULES` -- the rule catalogue behind
  ``docs/static_analysis.md``.

The sibling :mod:`repro.check` package checks the repo's *source code*
(``DET*`` determinism rules, ``EFF*`` policy effect proofs) and
model-checks compiled rounds over the hyperperiod (``MDL*``), with the
same diagnostic shape.
"""

from repro.verify.analysis_checks import (
    check_deadlines,
    check_retransmission_plan,
    check_slack_table,
    check_utilization,
)
from repro.verify.config_checks import as_raw_config, check_params
from repro.verify.diagnostics import Diagnostic, Report, Severity
from repro.verify.round_checks import check_compiled_round
from repro.verify.rules import VERIFY_RULES, Rule
from repro.verify.schedule_checks import check_schedule
from repro.verify.verifier import (
    ConfigurationError,
    compile_experiment,
    verify_experiment,
)

__all__ = [
    "Severity",
    "Diagnostic",
    "Report",
    "Rule",
    "VERIFY_RULES",
    "as_raw_config",
    "check_params",
    "check_schedule",
    "check_compiled_round",
    "check_slack_table",
    "check_utilization",
    "check_retransmission_plan",
    "check_deadlines",
    "compile_experiment",
    "verify_experiment",
    "ConfigurationError",
]
