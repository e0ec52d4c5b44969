"""Rule catalogue of the contract checker (``DET*`` / ``EFF*`` / ``MDL*``).

Three rule families check the promises the engines rest on:

- ``DET1xx`` -- per-file determinism rules over the repo's own source
  (:mod:`repro.check.determinism`): wall-clock reads, RNG draws that
  bypass the seeded :mod:`repro.sim.rng` streams, mutable default
  arguments, float equality on time values, and set iteration on paths
  that feed ordered output.  They run inside the same single parse as
  ``EFF3xx``.

- ``EFF3xx`` -- effect-inference rules over the repo's own source: a
  call graph over ``src/repro`` is built via AST, attribute read/write
  sets are inferred per method, and the closure over each policy
  class's decision entry points (``static_frame_for`` /
  ``dynamic_frame_for`` / ``on_dynamic_hold``) is intersected with the
  closure of what ``on_outcome`` mutates.  A class whose
  ``decisions_are_outcome_free()`` promise contradicts the inferred
  effect sets fails the build.

- ``MDL4xx`` -- symbolic model-checker rules over a
  :class:`~repro.timeline.compiler.CompiledRound`: interval arithmetic
  on the flat integer arrays proves window disjointness, segment
  tiling, owner-map agreement, slack-prefix-sum conservation and the
  log-space Theorem-1 bound over the **full hyperperiod** -- no
  simulation.  A violation is shrunk to a minimal counterexample round
  with a one-command repro.

Severity semantics match the verifier's: ``ERROR`` findings fail
``repro check`` (and CI); ``WARNING`` findings are surfaced only;
``INFO`` findings record a proof that *succeeded* (so the proof
obligations are visible in review, not just their failures).
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.verify.diagnostics import Severity
from repro.verify.rules import VERIFY_RULES, Rule, catalogue

__all__ = ["CHECK_RULES", "KNOWN_RULE_IDS"]


#: Every rule the contract checker can emit, keyed by id.
CHECK_RULES: Dict[str, Rule] = catalogue(
    # ---------------------------------------------------------------- DET
    Rule("DET100", "suppression-missing-reason", Severity.WARNING,
         "A '# lint-ok: <RULE>' suppression has no reason text; "
         "suppressions must say why the finding is safe."),
    Rule("DET101", "wall-clock-read", Severity.ERROR,
         "time.time()/datetime.now()-style wall-clock reads inside "
         "sim/, core/, protocol/, the protocol backends or analysis/ "
         "make runs irreproducible; simulated time comes from the "
         "engine."),
    Rule("DET102", "unseeded-rng", Severity.ERROR,
         "Global random.* or numpy.random.* draws (including "
         "np.random.default_rng() without a seed) inside sim/, core/, "
         "protocol/, the protocol backends or analysis/ bypass the "
         "seeded stream-splitting design; route through "
         "repro.sim.rng.RngStream."),
    Rule("DET103", "mutable-default-argument", Severity.ERROR,
         "A mutable default argument (list/dict/set literal or "
         "constructor) is shared across calls and mutates global "
         "state."),
    Rule("DET104", "float-time-equality", Severity.ERROR,
         "== / != on a float time-valued expression (a *_ms / *_us "
         "name) is representation-dependent; compare macrotick "
         "integers or use an explicit tolerance."),
    Rule("DET105", "unordered-set-iteration", Severity.ERROR,
         "Iterating a set inside experiments/ or obs/ feeds "
         "hash-order-dependent sequences into merge or export paths; "
         "wrap the iterable in sorted()."),
    Rule("DET106", "suppression-unknown-rule", Severity.ERROR,
         "A '# lint-ok:' comment lists a rule id that no catalogue "
         "(DET/FRC/FRS/ANA/EFF/MDL) defines; a typo'd id suppresses "
         "nothing and hides the author's intent."),
    Rule("DET999", "syntax-error", Severity.ERROR,
         "The file does not parse; no source rule can be checked."),
    # ---------------------------------------------------------------- EFF
    Rule("EFF300", "outcome-free-proved", Severity.INFO,
         "A policy class's decisions_are_outcome_free() promise was "
         "proved: the inferred decision-path read set is disjoint from "
         "the inferred on_outcome write set."),
    Rule("EFF301", "outcome-free-refuted", Severity.ERROR,
         "A policy class declares decisions_are_outcome_free() but the "
         "effect inference found state that a decision path reads and "
         "on_outcome mutates; the vectorized phase split would change "
         "answers."),
    Rule("EFF302", "nondeterministic-decision", Severity.ERROR,
         "A decision path can reach a wall-clock read or an unseeded "
         "RNG draw (the facts DET101/DET102 flag per file); trace "
         "equivalence across engines is void."),
    Rule("EFF303", "promise-unrecognized", Severity.WARNING,
         "decisions_are_outcome_free() has a body the static evaluator "
         "cannot interpret; the proof runs under the weakest claim "
         "(holds unless feedback), which may be stronger than "
         "intended."),
    Rule("EFF304", "unresolved-decision-call", Severity.WARNING,
         "A decision path calls a self-method the call graph cannot "
         "resolve; its effects are not covered by the proof."),
    Rule("EFF305", "global-state-mutation", Severity.ERROR,
         "A decision path can reach a module-global mutation "
         "(``global`` statement write); decisions must be a function "
         "of policy state only."),
    # ---------------------------------------------------------------- MDL
    Rule("MDL401", "hyperperiod-window-geometry", Severity.ERROR,
         "Interval arithmetic over the flat arrays found a window "
         "violation somewhere in the full hyperperiod: a static window "
         "off its (cycle, slot) grid position, windows overlapping on "
         "one channel, or the dynamic/symbol/NIT rows failing to tile "
         "the cycle remainder exactly."),
    Rule("MDL402", "hyperperiod-owner-disagreement", Severity.ERROR,
         "The owner maps and the flat arrays disagree somewhere in the "
         "full hyperperiod: a static row the owner view drops, or an "
         "owned (channel, cycle, slot) with no backing row."),
    Rule("MDL403", "slack-conservation-violated", Severity.ERROR,
         "The idle tables / prefix sums are not conserved over the "
         "full hyperperiod: an idle set differs from the owner-array "
         "complement in some cycle, or a window sum (single cycle, "
         "prefix, pattern-crossing, or a suffix of the first pattern) "
         "disagrees with the per-cycle totals."),
    Rule("MDL404", "theorem1-hyperperiod-unsound", Severity.ERROR,
         "The Theorem-1 budgets, clipped to the retransmissions the "
         "structural idle-slot supply plus the reserved dynamic "
         "capacity funds in the worst-aligned period window of the "
         "hyperperiod, miss the reliability goal (whether the "
         "unclipped plan misses it is ANA204's)."),
    Rule("MDL405", "counterexample-synthesized", Severity.INFO,
         "A violating round was shrunk to a minimal counterexample and "
         "serialized with a one-command repro."),
)

#: Every id any catalogue defines: the valid ``# lint-ok:`` targets.
KNOWN_RULE_IDS: FrozenSet[str] = frozenset(CHECK_RULES) \
    | frozenset(VERIFY_RULES)
