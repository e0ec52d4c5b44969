"""Static-analysis front end: determinism rules, effect proofs, model checks.

The ``repro check`` gate.  :mod:`repro.check.frontend` reads and parses
the source tree once; over that one parse,
:mod:`repro.check.determinism` runs the per-file ``DET1xx`` rules and
:mod:`repro.check.policy_proofs` turns every policy's
``decisions_are_outcome_free()`` promise into a statically checked
theorem over an AST call graph (``EFF3xx``).  Each bundled workload
then goes through :func:`repro.verify.verifier.verify_experiment`, whose
configuration, schedule and plan rules run beside
:mod:`repro.check.model_checker`: it proves a
:class:`~repro.timeline.compiler.CompiledRound`'s window, owner, slack
and Theorem-1 invariants over the full hyperperiod by interval
arithmetic on the flat arrays (``MDL4xx``), and violations shrink to
one-command counterexamples (:mod:`repro.check.counterexample`).
"""
