"""Simulation-free static verification of FlexRay configurations.

The cheap gate in front of expensive runs: every invariant the
simulator would only violate at runtime -- slot-table consistency,
cycle arithmetic, slack-table shape, busy-period convergence
preconditions, Theorem-1 feasibility -- is checked offline here and
reported as structured :class:`~repro.verify.diagnostics.Diagnostic`
records (stable rule id, severity, location, fix hint).

Entry points:

- :func:`~repro.verify.verifier.verify_experiment` -- build-and-check
  everything one experiment configuration implies (the per-workload
  pass of ``repro check`` and the ``run_campaign(validate=True)`` gate);
- the ``check_*`` rule groups -- check the artifacts you already have;
- :data:`~repro.verify.rules.VERIFY_RULES` -- the rule catalogue behind
  ``docs/static_analysis.md``.

The sibling :mod:`repro.check` package checks the repo's *source code*
(``DET*`` determinism rules, ``EFF*`` policy effect proofs) and
model-checks compiled rounds over the hyperperiod (``MDL*``), with the
same diagnostic shape.
"""
