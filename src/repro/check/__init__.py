"""Static-analysis front end: determinism rules, effect proofs, model checks.

The ``repro check`` gate (``repro lint`` runs its ``DET*`` family
alone).  :mod:`repro.check.frontend` reads and parses the source tree
once; over that one parse, :mod:`repro.check.determinism` runs the
per-file ``DET1xx`` rules and :mod:`repro.check.policy_proofs` turns
every policy's ``decisions_are_outcome_free()`` promise into a
statically checked theorem over an AST call graph (``EFF3xx``).
:mod:`repro.check.model_checker` proves a
:class:`~repro.timeline.compiler.CompiledRound`'s window, owner, slack
and Theorem-1 invariants over the full hyperperiod by interval
arithmetic on the flat arrays (``MDL4xx``), shrinking violations to
one-command counterexamples (:mod:`repro.check.counterexample`).
"""

from repro.check.determinism import LintScope, lint_paths, lint_source
from repro.check.rules import CHECK_RULES, KNOWN_RULE_IDS
from repro.check.runner import (
    check_round,
    check_sources,
    check_workload,
    default_source_roots,
)

__all__ = ["CHECK_RULES", "KNOWN_RULE_IDS", "LintScope", "check_sources",
           "check_workload", "check_round", "default_source_roots",
           "lint_paths", "lint_source"]
