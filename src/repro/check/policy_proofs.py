"""Prove or refute ``decisions_are_outcome_free()`` per policy class.

The vectorized engine's phase split (ask every decision of a segment
first, settle every outcome afterwards) is sound exactly when no
decision reads state that an outcome mutates.  Policies *assert* this
via ``decisions_are_outcome_free()``; this module turns the assertion
into a theorem over the call graph:

1. **Interpret the promise.**  The method body is statically evaluated
   into one of: never claims, always claims, claims unless
   ``self.feedback``, or -- for the base-class identity pattern
   ``type(self).on_outcome is QueueingPolicyBase.on_outcome`` -- claims
   iff the concrete class does not override ``on_outcome`` (checked
   against the AST-derived MRO).  Unrecognized bodies get ``EFF303``
   and are proved under the weakest recognized claim.

2. **Close the effect sets.**  For each claiming class, BFS from the
   decision entry points (``static_frame_for``, ``dynamic_frame_for``,
   ``on_dynamic_hold``, and ``on_arrival``, which the engine calls
   mid-segment before the segment's outcomes are settled) collects
   every attribute location read, and
   from ``on_outcome`` every location written, resolving ``self.m()``
   through the concrete class's MRO, ``super().m()`` past the defining
   class, and module-level helper calls across modules.  When the
   claim is feedback-conditional, feedback-gated accesses and call
   sites are excluded (they are unreachable under the claimed
   configuration).

3. **Intersect.**  A non-empty intersection (modulo the
   observation-only ``obs`` contract) refutes the promise: ``EFF301``
   names the location and both call chains.  An empty intersection
   proves it: ``EFF300`` (info) records the proof size.

Independent of promises, every policy's decision closure must be free
of wall-clock reads and unseeded RNG draws (``EFF302``) and of
module-global mutation (``EFF305``) -- trace equivalence across the
three engines needs determinism from every policy, not just the
vectorized-eligible ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.check.callgraph import ClassInfo, FunctionInfo, Project
from repro.check.effects import (
    EFFECT_GLOBAL_WRITE,
    EFFECT_RNG,
    EFFECT_WALL_CLOCK,
    is_feedback_test,
)
from repro.verify.diagnostics import Diagnostic, Report, Severity

__all__ = ["POLICY_ROOT", "DECISION_ENTRIES", "check_policy_promises"]

#: The abstract policy root every scheduler derives from.
POLICY_ROOT = "repro.protocol.policy.SchedulerPolicy"

#: The phase-A hooks of the engine contract: the per-slot decisions and
#: the arrival admission the engine interleaves with them.
DECISION_ENTRIES = ("static_frame_for", "dynamic_frame_for",
                    "on_dynamic_hold", "on_arrival")

#: The phase-B feedback hook.
OUTCOME_ENTRY = "on_outcome"

#: Attributes excluded from conflict detection: ``attach_observability``
#: declares observation-only semantics (counters and events recorded,
#: decisions unchanged), verified separately by the determinism tests.
_OBS_WHITELIST = frozenset({"obs", "obs.*"})

#: Promise kinds (static evaluation of decisions_are_outcome_free).
NEVER = "never"
ALWAYS = "always"
UNLESS_FEEDBACK = "unless-feedback"
UNRECOGNIZED = "unrecognized"


@dataclass(frozen=True)
class Promise:
    """Statically evaluated form of one promise method."""

    kind: str
    #: ``(method, anchor class qualname)`` for the identity pattern:
    #: the claim additionally requires that the concrete class's MRO
    #: resolves ``method`` to the anchor class.
    no_override: Optional[Tuple[str, str]] = None
    location: str = ""


@dataclass
class Closure:
    """Effect closure from a set of entry points."""

    #: location -> (call chain, lineno, path) of the first access found.
    reads: Dict[str, Tuple[Tuple[str, ...], int, str]] = field(
        default_factory=dict)
    writes: Dict[str, Tuple[Tuple[str, ...], int, str]] = field(
        default_factory=dict)
    #: primitive effect -> call chain that reaches it.
    effects: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: unresolved self-method call names -> call chain.
    unresolved: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    visited: Set[str] = field(default_factory=set)


def _short(qualname: str) -> str:
    """``repro.core.queueing.QueueingPolicyBase.on_outcome`` -> tail."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qualname


def _chain_text(chain: Tuple[str, ...]) -> str:
    return " -> ".join(_short(name) for name in chain)


# ----------------------------------------------------------------------
# Promise interpretation
# ----------------------------------------------------------------------

def interpret_promise(project: Project, cls: ClassInfo) -> Optional[Promise]:
    """Statically evaluate a class's ``decisions_are_outcome_free``."""
    fn = project.resolve_method(cls, "decisions_are_outcome_free")
    if fn is None or fn.node is None:
        return None
    assert isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef))
    location = f"{fn.path}:{fn.node.lineno}"
    body = [stmt for stmt in fn.node.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))]
    unless_feedback = False
    if body and _is_feedback_guard(body[0]):
        unless_feedback = True
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return Promise(UNRECOGNIZED, location=location)
    value = body[0].value
    if isinstance(value, ast.Constant) and value.value is False:
        return Promise(NEVER, location=location)
    if isinstance(value, ast.Constant) and value.value is True:
        return Promise(UNLESS_FEEDBACK if unless_feedback else ALWAYS,
                       location=location)
    if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.Not) \
            and is_feedback_test(value.operand):
        return Promise(UNLESS_FEEDBACK, location=location)
    anchor = _match_no_override(project, fn, value)
    if anchor is not None:
        return Promise(UNLESS_FEEDBACK if unless_feedback else ALWAYS,
                       no_override=anchor, location=location)
    return Promise(UNRECOGNIZED, location=location)


def _is_feedback_guard(stmt: ast.stmt) -> bool:
    """``if self.feedback: return False`` (no else)."""
    return (isinstance(stmt, ast.If)
            and is_feedback_test(stmt.test)
            and not stmt.orelse
            and len(stmt.body) == 1
            and isinstance(stmt.body[0], ast.Return)
            and isinstance(stmt.body[0].value, ast.Constant)
            and stmt.body[0].value.value is False)


def _match_no_override(project: Project, fn: FunctionInfo,
                       value: ast.expr) -> Optional[Tuple[str, str]]:
    """``type(self).m is Anchor.m`` -> ``(m, anchor qualname)``."""
    if not (isinstance(value, ast.Compare) and len(value.ops) == 1
            and isinstance(value.ops[0], ast.Is)):
        return None
    left, right = value.left, value.comparators[0]
    if not (isinstance(left, ast.Attribute)
            and isinstance(left.value, ast.Call)
            and isinstance(left.value.func, ast.Name)
            and left.value.func.id == "type"):
        return None
    if not (isinstance(right, ast.Attribute)
            and isinstance(right.value, ast.Name)
            and right.attr == left.attr):
        return None
    anchor = project.resolve_class(fn.module, right.value.id)
    if anchor is None:
        return None
    return left.attr, anchor.qualname


def _claim_holds(project: Project, cls: ClassInfo,
                 promise: Promise) -> bool:
    """Whether the promise actually *claims* for this concrete class."""
    if promise.kind == NEVER:
        return False
    if promise.no_override is not None:
        method, anchor = promise.no_override
        resolved = project.resolve_method(cls, method)
        if resolved is None or resolved.class_qualname != anchor:
            return False
    return True


# ----------------------------------------------------------------------
# Effect closure
# ----------------------------------------------------------------------

def compute_closure(project: Project, cls: ClassInfo,
                    entries: Tuple[str, ...],
                    include_gated: bool) -> Closure:
    """BFS the call graph from ``entries`` resolved against ``cls``."""
    closure = Closure()
    queue: List[Tuple[FunctionInfo, Tuple[str, ...]]] = []
    for entry in entries:
        fn = project.resolve_method(cls, entry)
        if fn is not None:
            queue.append((fn, (fn.qualname,)))
    while queue:
        fn, chain = queue.pop(0)
        if fn.qualname in closure.visited:
            continue
        closure.visited.add(fn.qualname)
        summary = fn.summary

        def admit(gated: bool) -> bool:
            return include_gated or not gated

        for access in summary.reads:
            if admit(access.gated):
                closure.reads.setdefault(
                    access.location, (chain, access.lineno, fn.path))
        for access in summary.binding_loads:
            if admit(access.gated):
                closure.reads.setdefault(
                    access.location, (chain, access.lineno, fn.path))
        for access in summary.value_loads:
            if not admit(access.gated):
                continue
            # A plain `self.name` load: a method/property in the MRO is
            # a call edge (the property-getter idiom); anything else is
            # a data read of binding and contents.
            target = project.resolve_method(cls, access.location)
            if target is not None:
                queue.append((target, chain + (target.qualname,)))
            else:
                closure.reads.setdefault(
                    access.location, (chain, access.lineno, fn.path))
                closure.reads.setdefault(
                    f"{access.location}.*", (chain, access.lineno, fn.path))
        for access in summary.writes:
            if admit(access.gated):
                closure.writes.setdefault(
                    access.location, (chain, access.lineno, fn.path))
        for effect in summary.effects:
            closure.effects.setdefault(effect, chain)
        for call in summary.calls:
            if not admit(call.gated):
                continue
            target: Optional[FunctionInfo]
            if call.kind == "self":
                target = project.resolve_method(cls, call.name)
                if target is None:
                    closure.unresolved.setdefault(call.name, chain)
                    continue
            elif call.kind == "super":
                defining = fn.class_qualname or cls.qualname
                target = project.resolve_method_after(cls, defining,
                                                      call.name)
                if target is None:
                    continue
            else:
                target = project.resolve_plain_call(fn.module, call.name)
                if target is None:
                    continue  # external/builtin: effects were seeded
                if target.class_qualname is not None:
                    continue  # a class used as a callable: constructor
            queue.append((target, chain + (target.qualname,)))
    return closure


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------

def check_policy_promises(project: Project,
                          root: str = POLICY_ROOT) -> Report:
    """Run every ``EFF3xx`` rule over the policy hierarchy."""
    report = Report()
    root_cls = project.classes.get(root)
    if root_cls is None:
        report.add(Diagnostic(
            rule_id="EFF304", severity=Severity.WARNING,
            location=root,
            message="policy root class not found in the parsed project; "
                    "no promises can be checked",
            fix_hint="point repro check at the package that defines "
                     "SchedulerPolicy",
        ))
        return report
    classes = [root_cls] + project.subclasses_of(root)
    for cls in classes:
        _check_one_class(project, cls, report)
    return report


def _check_one_class(project: Project, cls: ClassInfo,
                     report: Report) -> None:
    promise = interpret_promise(project, cls)
    where = f"{cls.path}:{cls.lineno}"
    include_gated = True  # determinism rules see every branch
    decisions = compute_closure(project, cls, DECISION_ENTRIES,
                                include_gated=include_gated)

    # EFF302/EFF305 apply to every policy class: all three engines need
    # deterministic, policy-state-only decisions.
    for effect in (EFFECT_WALL_CLOCK, EFFECT_RNG):
        chain = decisions.effects.get(effect)
        if chain is not None:
            report.add(Diagnostic(
                rule_id="EFF302", severity=Severity.ERROR,
                location=where,
                message=f"{cls.name}: a decision path reaches a "
                        f"{'wall-clock read' if effect == EFFECT_WALL_CLOCK else 'global RNG draw'} "
                        f"via {_chain_text(chain)}",
                fix_hint="decisions must be functions of policy state; "
                         "route randomness through seeded RngStreams "
                         "outside the decision hooks",
            ))
    chain = decisions.effects.get(EFFECT_GLOBAL_WRITE)
    if chain is not None:
        report.add(Diagnostic(
            rule_id="EFF305", severity=Severity.ERROR,
            location=where,
            message=f"{cls.name}: a decision path mutates module-global "
                    f"state via {_chain_text(chain)}",
            fix_hint="keep decision state on the policy instance",
        ))

    if promise is None or not _claim_holds(project, cls, promise):
        return  # the class does not claim: nothing to prove

    if promise.kind == UNRECOGNIZED:
        report.add(Diagnostic(
            rule_id="EFF303", severity=Severity.WARNING,
            location=promise.location,
            message=f"{cls.name}.decisions_are_outcome_free has a body "
                    f"the static evaluator cannot interpret; proving "
                    f"the weakest claim (holds unless feedback)",
            fix_hint="use one of the recognized promise forms (constant, "
                     "'not self.feedback', or the base identity pattern)",
        ))
    conditional = promise.kind in (UNLESS_FEEDBACK, UNRECOGNIZED)
    decision_closure = compute_closure(project, cls, DECISION_ENTRIES,
                                       include_gated=not conditional)
    outcome_closure = compute_closure(project, cls, (OUTCOME_ENTRY,),
                                      include_gated=not conditional)

    for name, chain in sorted(decision_closure.unresolved.items()):
        report.add(Diagnostic(
            rule_id="EFF304", severity=Severity.WARNING,
            location=where,
            message=f"{cls.name}: decision path calls self.{name}() "
                    f"which the call graph cannot resolve "
                    f"(via {_chain_text(chain)}); its effects are not "
                    f"covered by the outcome-free proof",
            fix_hint="define the method in the class hierarchy or drop "
                     "the dynamic dispatch",
        ))

    conflicts = sorted(
        location
        for location in set(decision_closure.reads)
              & set(outcome_closure.writes)
        if location not in _OBS_WHITELIST
        and not location.startswith("<global ")
    )
    if conflicts:
        for location in conflicts:
            read_chain, read_line, read_path = \
                decision_closure.reads[location]
            write_chain, write_line, write_path = \
                outcome_closure.writes[location]
            report.add(Diagnostic(
                rule_id="EFF301", severity=Severity.ERROR,
                location=f"{read_path}:{read_line}",
                message=f"{cls.name} declares decisions_are_outcome_free"
                        f"() but `self.{location}` is read on the "
                        f"decision path {_chain_text(read_chain)} "
                        f"(line {read_line}) and mutated on the outcome "
                        f"path {_chain_text(write_chain)} "
                        f"({write_path}:{write_line}); the vectorized "
                        f"phase split would change this answer",
                fix_hint="move the state off the outcome path, gate the "
                         "read on self.feedback, or return False from "
                         "decisions_are_outcome_free",
            ))
        return
    mutated = sorted(location for location in outcome_closure.writes
                     if not location.startswith("<global "))
    report.add(Diagnostic(
        rule_id="EFF300", severity=Severity.INFO,
        location=promise.location,
        message=f"{cls.name}: decisions_are_outcome_free proved "
                f"({promise.kind}): {len(decision_closure.reads)} "
                f"decision-path read location(s) over "
                f"{len(decision_closure.visited)} function(s) are "
                f"disjoint from the outcome-path write set "
                f"{{{', '.join(mutated)}}}",
        fix_hint="",
    ))
