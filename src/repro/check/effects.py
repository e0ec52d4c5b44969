"""Per-function effect summaries (the dataflow facts of ``EFF3xx``).

One :class:`FunctionSummary` per function/method records, straight from
the AST and without executing anything:

- which ``self`` attributes the body *reads* and *writes*, at two
  location granularities -- the **binding** (``_planner``: rebinding,
  ``is None`` tests, plain value use) and the **contents**
  (``_planner.*``: element access, mutation through a method call,
  truthiness of a container);
- which calls it makes (``self.m()``, ``super().m()``, plain names,
  dotted externals), so the proof engine can close over the call graph;
- whether each access/call is **feedback-gated** -- lexically reachable
  only when ``self.feedback`` is true.  The shipped promises are
  conditional on ``not self.feedback``, so feedback-gated effects are
  excluded from those proofs (and included for unconditional ones);
- primitive effects from the one wall-clock/RNG fact table
  (:func:`primitive_effects`, which the ``DET101``/``DET102`` rules
  read too) and ``global``-statement writes.

The location split is what makes the shipped policies provable with
zero false positives: ``on_outcome`` *mutating* the planner via
``self._planner.consume()`` writes ``_planner.*`` but not the binding,
while a decision path testing ``self._planner is not None`` reads the
binding but not the contents -- no conflict, exactly as the docstring
proof in :class:`~repro.core.coefficient.CoEfficientPolicy` argues.

Deliberate approximations (documented, conservative for the promise
direction they matter in):

- A call with ``self.attr`` as an argument *may* mutate it: recorded as
  a contents write always, and as a contents read only when the call's
  result is used (``heapq.heappush(self._heap, x)`` is write-only; the
  decision cannot depend on a discarded result).
- ``self.attr[k] op= v`` (subscript augmented assignment, the counter
  idiom) is a contents write only: the read feeds nothing but the
  written cell.
- Mutations through local aliases (``q = self._queues[k]; q.pop()``)
  are not tracked; the alias's *origin* read is.  This under-approximates
  writes on decision paths (harmless: conflicts key on outcome-path
  writes, and ``on_outcome`` closures use the same rules on ``self``
  directly in this codebase).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.check.frontend import dotted_name

__all__ = [
    "Access", "CallSite", "FunctionSummary", "summarize_function",
    "EFFECT_RNG", "EFFECT_WALL_CLOCK", "EFFECT_GLOBAL_WRITE",
    "primitive_effects", "is_feedback_test", "FEEDBACK_ATTRS",
]

#: Primitive effect tags (seeded facts, closed over the call graph).
EFFECT_RNG = "rng-draw"
EFFECT_WALL_CLOCK = "wall-clock"
EFFECT_GLOBAL_WRITE = "global-write"

#: Dotted call targets that read the wall clock.
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: Names whose call with these roots is a global RNG draw.
_RNG_ROOTS = ("random", "np.random", "numpy.random")

#: ``self`` attributes whose truthiness encodes "reactive ARQ is on".
FEEDBACK_ATTRS = frozenset({"feedback", "_feedback"})


@dataclass(frozen=True)
class Access:
    """One attribute read or write.

    ``location`` is the attribute name for the binding, or
    ``"<attr>.*"`` for the contents reached through it.
    """

    location: str
    lineno: int
    gated: bool


@dataclass(frozen=True)
class CallSite:
    """One call the body makes.

    ``kind`` is ``"self"`` (``self.m(...)`` or a ``self.prop`` load that
    resolves to a method/property), ``"super"`` (``super().m(...)``), or
    ``"plain"`` (a name or dotted target; ``name`` is the alias-expanded
    dotted string).
    """

    name: str
    kind: str
    lineno: int
    gated: bool


@dataclass
class FunctionSummary:
    """Inferred effect facts of one function body."""

    qualname: str
    name: str
    lineno: int
    reads: List[Access] = field(default_factory=list)
    writes: List[Access] = field(default_factory=list)
    #: Plain ``self.attr`` value loads, classified late: the proof
    #: engine turns them into call edges when the name resolves to a
    #: method/property in the class's MRO, and into binding+contents
    #: reads otherwise.
    value_loads: List[Access] = field(default_factory=list)
    #: ``self.attr`` loads proven binding-only (``is``/``is not`` tests).
    binding_loads: List[Access] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    effects: Set[str] = field(default_factory=set)
    #: attr -> lineno of a leading unconditional ``self.attr = ...``
    #: store; later reads of the attr are shadowed by it.
    prologue_stores: Dict[str, int] = field(default_factory=dict)


def primitive_effects(dotted: str, node: ast.Call) -> Set[str]:
    """Primitive effects of one alias-expanded dotted call.

    The one wall-clock/RNG fact table: ``DET101``/``DET102`` flag these
    calls per file and ``EFF302`` closes them over the call graph.  A
    seeded ``default_rng(seed)`` construction is the one sanctioned
    RNG use.
    """
    effects: Set[str] = set()
    if dotted in _WALL_CLOCK_CALLS:
        effects.add(EFFECT_WALL_CLOCK)
    for root in _RNG_ROOTS:
        if dotted == root or dotted.startswith(root + "."):
            if dotted.endswith(".default_rng") and (node.args
                                                    or node.keywords):
                break  # the sanctioned seeded construction
            effects.add(EFFECT_RNG)
            break
    return effects


def _is_self_attr(node: ast.AST) -> Optional[str]:
    """``self.attr`` -> ``attr``, else ``None``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def is_feedback_test(node: ast.AST) -> bool:
    """Whether an expression is exactly a ``self.feedback``-style load."""
    attr = _is_self_attr(node)
    return attr is not None and attr in FEEDBACK_ATTRS


class _BodyVisitor:
    """Recursive statement/expression walker filling a summary.

    Not an ``ast.NodeVisitor``: the classification depends on context
    (statement position, result-used, gating) that generic visiting
    loses, so statements and expressions are dispatched by hand.
    """

    def __init__(self, summary: FunctionSummary,
                 aliases: Dict[str, str]) -> None:
        self._s = summary
        self._aliases = aliases

    # -- recording ------------------------------------------------------

    def _read(self, location: str, lineno: int, gated: bool) -> None:
        self._s.reads.append(Access(location, lineno, gated))

    def _write(self, location: str, lineno: int, gated: bool) -> None:
        self._s.writes.append(Access(location, lineno, gated))

    # -- statements -----------------------------------------------------

    def run(self, body: List[ast.stmt]) -> None:
        # Prologue: leading unconditional `self.attr = ...` stores
        # shadow every later read of the attr (the `_now_mt = start_mt`
        # clock-overwrite idiom in the decision hooks).
        for stmt in body:
            if isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, ast.Constant):
                continue  # docstring
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                attrs = [_is_self_attr(t) for t in targets]
                if attrs and all(a is not None for a in attrs):
                    for attr in attrs:
                        assert attr is not None
                        self._s.prologue_stores.setdefault(attr,
                                                           stmt.lineno)
                    continue
            break
        self._stmts(body, gated=False)

    def _stmts(self, body: List[ast.stmt], gated: bool) -> None:
        for stmt in body:
            self._stmt(stmt, gated)

    def _stmt(self, stmt: ast.stmt, gated: bool) -> None:
        if isinstance(stmt, ast.If):
            self._if(stmt, gated)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(stmt, gated)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._target(target, stmt.lineno, gated, augmented=False)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value, gated, used=False)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value, gated, used=True)
        elif isinstance(stmt, ast.Global):
            for name in stmt.names:
                self._s.effects.add(EFFECT_GLOBAL_WRITE)
                self._s.writes.append(Access(f"<global {name}>",
                                             stmt.lineno, gated))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            attr = _is_self_attr(stmt.iter)
            if attr is not None:
                self._read(f"{attr}.*", stmt.lineno, gated)
                self._read(attr, stmt.lineno, gated)
            else:
                self._expr(stmt.iter, gated, used=True)
            self._stmts(stmt.body, gated)
            self._stmts(stmt.orelse, gated)
        elif isinstance(stmt, ast.While):
            self._test(stmt.test, gated)
            self._stmts(stmt.body, gated)
            self._stmts(stmt.orelse, gated)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr, gated, used=True)
            self._stmts(stmt.body, gated)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body, gated)
            for handler in stmt.handlers:
                self._stmts(handler.body, gated)
            self._stmts(stmt.orelse, gated)
            self._stmts(stmt.finalbody, gated)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, gated, used=True)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # nested defs are separate summaries (or out of scope)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, gated, used=True)
                elif isinstance(child, ast.stmt):
                    self._stmt(child, gated)

    def _if(self, stmt: ast.If, gated: bool) -> None:
        """Feedback gating: route each branch with the right flag."""
        test = stmt.test
        if is_feedback_test(test):
            self._stmts(stmt.body, True)
            self._stmts(stmt.orelse, gated)
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
                and is_feedback_test(test.operand):
            self._stmts(stmt.body, gated)
            self._stmts(stmt.orelse, True)
            return
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) \
                and any(is_feedback_test(v) for v in test.values):
            # `if self.feedback and cond():` -- the body and the
            # conjuncts after the feedback test only run with feedback.
            seen_feedback = False
            for value in test.values:
                if is_feedback_test(value):
                    seen_feedback = True
                    continue
                self._expr(value, gated or seen_feedback, used=True)
            self._stmts(stmt.body, True)
            self._stmts(stmt.orelse, gated)
            return
        self._test(test, gated)
        self._stmts(stmt.body, gated)
        self._stmts(stmt.orelse, gated)

    def _test(self, test: ast.expr, gated: bool) -> None:
        self._expr(test, gated, used=True)

    def _assign(self, stmt: ast.stmt, gated: bool) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._target(target, stmt.lineno, gated, augmented=False)
            self._expr(stmt.value, gated, used=True)
        elif isinstance(stmt, ast.AnnAssign):
            self._target(stmt.target, stmt.lineno, gated, augmented=False)
            if stmt.value is not None:
                self._expr(stmt.value, gated, used=True)
        elif isinstance(stmt, ast.AugAssign):
            self._target(stmt.target, stmt.lineno, gated, augmented=True)
            self._expr(stmt.value, gated, used=True)

    def _target(self, target: ast.expr, lineno: int, gated: bool,
                augmented: bool) -> None:
        attr = _is_self_attr(target)
        if attr is not None:
            self._write(attr, lineno, gated)
            if augmented:
                # `self._backlog -= 1` reads the old binding value.
                self._read(attr, lineno, gated)
            return
        if isinstance(target, ast.Subscript):
            base = _is_self_attr(target.value)
            if base is not None:
                # `self.counters[k] += 1` / `self._status[key] = v`:
                # contents write; the augmented read feeds only the
                # written cell, so it is deliberately not a read.
                self._write(f"{base}.*", lineno, gated)
            else:
                self._expr(target.value, gated, used=True)
            self._expr(target.slice, gated, used=True)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target(element, lineno, gated, augmented)
            return
        for child in ast.iter_child_nodes(target):
            if isinstance(child, ast.expr):
                self._expr(child, gated, used=True)

    # -- expressions ----------------------------------------------------

    def _expr(self, node: ast.expr, gated: bool, used: bool) -> None:
        if isinstance(node, ast.Call):
            self._call(node, gated, used)
            return
        attr = _is_self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):
            self._s.value_loads.append(Access(attr, node.lineno, gated))
            return
        if isinstance(node, ast.Subscript):
            base = _is_self_attr(node.value)
            if base is not None and isinstance(node.ctx, ast.Load):
                self._read(f"{base}.*", node.lineno, gated)
                self._read(base, node.lineno, gated)
            else:
                self._expr(node.value, gated, used=True)
            self._expr(node.slice, gated, used=True)
            return
        if isinstance(node, ast.Compare):
            self._compare(node, gated)
            return
        if isinstance(node, ast.BoolOp):
            self._boolop(node, gated)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, gated, used=True)
            elif isinstance(child, ast.comprehension):
                attr = _is_self_attr(child.iter)
                if attr is not None:
                    self._read(f"{attr}.*", node.lineno, gated)
                    self._read(attr, node.lineno, gated)
                else:
                    self._expr(child.iter, gated, used=True)
                for cond in child.ifs:
                    self._expr(cond, gated, used=True)

    def _compare(self, node: ast.Compare, gated: bool) -> None:
        operands = [node.left] + list(node.comparators)
        identity = all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        for operand in operands:
            attr = _is_self_attr(operand)
            if attr is not None and identity:
                # `self._planner is not None` tests the binding only:
                # the contents are untouched, which is exactly what
                # keeps the consume()-vs-is-None pair conflict-free.
                self._s.binding_loads.append(
                    Access(attr, operand.lineno, gated))
            else:
                self._expr(operand, gated, used=True)

    def _boolop(self, node: ast.BoolOp, gated: bool) -> None:
        """`self.feedback and X` gates the conjuncts after the test."""
        seen_feedback = False
        for value in node.values:
            if isinstance(node.op, ast.And) and is_feedback_test(value):
                self._s.value_loads.append(
                    Access(_is_self_attr(value) or "feedback",
                           value.lineno, gated))
                seen_feedback = True
                continue
            self._expr(value, gated or seen_feedback, used=True)

    def _call(self, node: ast.Call, gated: bool, used: bool) -> None:
        func = node.func
        handled_args = False
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                self._s.calls.append(
                    CallSite(func.attr, "self", node.lineno, gated))
            elif isinstance(receiver, ast.Call) \
                    and isinstance(receiver.func, ast.Name) \
                    and receiver.func.id == "super":
                self._s.calls.append(
                    CallSite(func.attr, "super", node.lineno, gated))
            else:
                attr = _is_self_attr(receiver)
                if attr is not None:
                    # A method call on a self attribute mutates its
                    # contents; the decision depends on them only when
                    # the result is used.
                    self._write(f"{attr}.*", node.lineno, gated)
                    if used:
                        self._read(f"{attr}.*", node.lineno, gated)
                        self._read(attr, node.lineno, gated)
                else:
                    dotted = dotted_name(func, self._aliases)
                    if dotted is not None:
                        self._s.effects |= primitive_effects(dotted, node)
                        self._s.calls.append(
                            CallSite(dotted, "plain", node.lineno, gated))
                    else:
                        self._expr(receiver, gated, used=True)
        elif isinstance(func, ast.Name):
            name = func.id
            if name == "getattr" and node.args \
                    and _is_self_attr(node.args[0]) is None \
                    and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id == "self" \
                    and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant) \
                    and isinstance(node.args[1].value, str):
                # getattr(self, "attr", default) reads the attribute.
                attr = node.args[1].value
                self._read(attr, node.lineno, gated)
                self._read(f"{attr}.*", node.lineno, gated)
                for extra in node.args[2:]:
                    self._expr(extra, gated, used=True)
                handled_args = True
            elif name not in ("type", "len", "isinstance", "super"):
                dotted = self._aliases.get(name, name)
                self._s.effects |= primitive_effects(dotted, node)
                self._s.calls.append(
                    CallSite(dotted, "plain", node.lineno, gated))
        else:
            self._expr(func, gated, used=True)
        if handled_args:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            attr = _is_self_attr(arg)
            if attr is not None:
                # Passing self.attr to a callee may mutate it (heap
                # pushes); the decision reads it only through a used
                # result.
                self._write(f"{attr}.*", node.lineno, gated)
                self._read(attr, node.lineno, gated)
                if used:
                    self._read(f"{attr}.*", node.lineno, gated)
            else:
                self._expr(arg, gated, used=True)


def summarize_function(qualname: str, node: ast.AST,
                       aliases: Dict[str, str]) -> FunctionSummary:
    """Summarize one function/method body.

    Args:
        qualname: Fully qualified name (``module.Class.method``).
        node: The ``FunctionDef`` / ``AsyncFunctionDef`` node.
        aliases: The defining module's import-alias map (name ->
            dotted target) for external-call resolution.
    """
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    summary = FunctionSummary(qualname=qualname, name=node.name,
                              lineno=node.lineno)
    _BodyVisitor(summary, aliases).run(node.body)
    # Apply prologue shadowing: a read after the leading store reads
    # the value the function itself just wrote, not outcome-mutated
    # state.
    def live(access: Access) -> bool:
        base = access.location.split(".", 1)[0]
        store_line = summary.prologue_stores.get(base)
        return store_line is None or access.lineno <= store_line

    summary.reads = [a for a in summary.reads if live(a)]
    summary.value_loads = [a for a in summary.value_loads if live(a)]
    summary.binding_loads = [a for a in summary.binding_loads if live(a)]
    for attr, lineno in summary.prologue_stores.items():
        summary.writes.append(Access(attr, lineno, False))
    return summary
