"""The ``DET1xx`` determinism rules: one per-file family of the checker.

Parallel campaigns promise bit-identical results across worker counts;
that promise only holds while the simulation code stays deterministic.
This family *statically* enforces the coding rules the promise rests on
(see :data:`repro.check.rules.CHECK_RULES` for the ``DET*`` catalogue).
It runs over the trees of the checker's one parse
(:mod:`repro.check.frontend`): ``repro check`` runs it next to the
``EFF3xx`` proofs.

One :class:`FileChecker` checks one module.  It is a plain
:class:`ast.NodeVisitor`: every rule is a method over syntax, no imports
are executed, and the diagnostics come out in source order.  Call
targets resolve through the module's one import-alias map, the same
map the ``EFF3xx`` call graph uses.

Suppressions
------------

A finding is suppressed by a trailing comment on the offending line::

    elapsed = time.time()  # lint-ok: DET101 host-side profiling only

The rule id must match and a reason is required; a bare
``# lint-ok: DET101`` suppresses the finding but earns a ``DET100``
warning, so silent suppressions are visible in review.  Several ids may
be listed comma-separated: ``# lint-ok: DET101,DET102 reason``.  An id
that no rule catalogue defines (``DET9999``, say) suppresses nothing
and is itself a ``DET106`` error.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.check.effects import (
    EFFECT_RNG,
    EFFECT_WALL_CLOCK,
    primitive_effects,
)
from repro.check.frontend import (
    SourceFile,
    dotted_name,
    parse_module,
)
from repro.check.rules import KNOWN_RULE_IDS
from repro.verify.diagnostics import Diagnostic, Severity

__all__ = ["FileChecker", "LintScope", "scope_for_path", "check_file",
           "lint_source"]

#: Sub-packages of ``repro`` in which simulated time and randomness are
#: load-bearing: wall-clock and unseeded-RNG rules apply here.
RESTRICTED_PACKAGES = frozenset(
    {"sim", "core", "protocol", "flexray", "ttethernet", "analysis"})

#: Sub-packages whose output ordering is part of the determinism
#: contract (campaign merge, observability export): the set-iteration
#: rule applies here.
ORDERED_OUTPUT_PACKAGES = frozenset({"experiments", "obs"})

#: The sanctioned RNG wrapper itself is exempt from DET102.
RNG_MODULE_SUFFIX = ("sim", "rng.py")

_SUPPRESS_RE = re.compile(
    r"#\s*lint-ok:\s*(?P<ids>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
    r"(?:\s+(?P<reason>\S.*))?"
)

#: Time-valued identifier suffixes for DET104.  Macrotick names
#: (``*_mt``) are integers and deliberately excluded: integer equality
#: is exact and idiomatic in the engine.
_TIME_SUFFIX_RE = re.compile(r"(_ms|_us)$")

_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set"})


@dataclass(frozen=True)
class LintScope:
    """Which path-dependent rules apply to the file being checked."""

    restricted: bool = True        # DET101 / DET102 apply
    ordered_output: bool = True    # DET105 applies
    rng_module: bool = False       # the sanctioned wrapper: DET102 exempt


def scope_for_path(path: str) -> LintScope:
    """The rule scopes of a module: its directory names decide which
    package it belongs to."""
    parts = tuple(os.path.normpath(path).replace(os.sep, "/").split("/"))
    return LintScope(
        restricted=bool(RESTRICTED_PACKAGES.intersection(parts)),
        ordered_output=bool(ORDERED_OUTPUT_PACKAGES.intersection(parts)),
        rng_module=parts[-2:] == RNG_MODULE_SUFFIX,
    )


class FileChecker(ast.NodeVisitor):
    """Check one module's AST against every applicable ``DET*`` rule.

    Args:
        path: Display path for diagnostic locations.
        source: Module source text (used for suppression comments).
        aliases: The module's import-alias map.
        scope: Path-dependent rule applicability.
    """

    def __init__(self, path: str, source: str, aliases: Dict[str, str],
                 scope: Optional[LintScope] = None) -> None:
        self._path = path
        self._scope = scope or LintScope()
        self._suppressions = self._parse_suppressions(source)
        self._aliases = aliases
        self.diagnostics: List[Diagnostic] = []

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_suppressions(source: str) -> Dict[int, Tuple[Set[str], bool]]:
        """``lineno -> (suppressed ids, has a reason)``."""
        suppressions: Dict[int, Tuple[Set[str], bool]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                ids = {part.strip()
                       for part in match.group("ids").split(",")}
                suppressions[lineno] = (ids, bool(match.group("reason")))
        return suppressions

    def _report(self, rule_id: str, node: ast.AST, message: str,
                fix_hint: str, severity: Severity = Severity.ERROR) -> None:
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        ids, has_reason = self._suppressions.get(lineno, (set(), True))
        if rule_id in ids:
            if not has_reason:
                self.diagnostics.append(Diagnostic(
                    rule_id="DET100", severity=Severity.WARNING,
                    location=f"{self._path}:{lineno}:{col}",
                    message=f"suppression of {rule_id} has no reason",
                    fix_hint="write '# lint-ok: "
                             f"{rule_id} <why this is safe>'",
                ))
            return
        self.diagnostics.append(Diagnostic(
            rule_id=rule_id, severity=severity,
            location=f"{self._path}:{lineno}:{col}",
            message=message, fix_hint=fix_hint,
        ))

    # ------------------------------------------------------------------
    # DET101 / DET102: calls
    # ------------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func, self._aliases)
        if dotted is not None and self._scope.restricted:
            effects = primitive_effects(dotted, node)
            if EFFECT_WALL_CLOCK in effects:
                self._report(
                    "DET101", node,
                    f"wall-clock read {dotted}() in simulation code",
                    "use the engine's simulated clock, or move the "
                    "timing into repro.obs",
                )
            elif EFFECT_RNG in effects and not self._scope.rng_module:
                self._report(
                    "DET102", node,
                    f"global RNG draw {dotted}() bypasses the seeded "
                    f"streams",
                    "take an RngStream (repro.sim.rng) and draw from it",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # DET103: mutable default arguments
    # ------------------------------------------------------------------

    def _check_defaults(self, arguments: ast.arguments) -> None:
        names = [arg.arg for arg in arguments.posonlyargs + arguments.args]
        defaults: List[Tuple[str, Optional[ast.AST]]] = list(zip(
            names[len(names) - len(arguments.defaults):],
            arguments.defaults,
        ))
        defaults.extend(
            (arg.arg, default) for arg, default
            in zip(arguments.kwonlyargs, arguments.kw_defaults)
        )
        for name, default in defaults:
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if not mutable and isinstance(default, ast.Call) \
                    and isinstance(default.func, ast.Name) \
                    and default.func.id in _MUTABLE_CONSTRUCTORS:
                mutable = True
            if mutable:
                self._report(
                    "DET103", default,
                    f"argument {name!r} has a mutable default",
                    "default to None and create the container inside "
                    "the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # DET104: float equality on time-valued expressions
    # ------------------------------------------------------------------

    @staticmethod
    def _terminal_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def _is_time_valued(self, node: ast.AST) -> bool:
        name = self._terminal_name(node)
        return name is not None and bool(_TIME_SUFFIX_RE.search(name))

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if self._is_time_valued(side):
                    name = self._terminal_name(side)
                    self._report(
                        "DET104", node,
                        f"float time value {name!r} compared with "
                        f"{'==' if isinstance(op, ast.Eq) else '!='}",
                        "compare integer macroticks, or use "
                        "math.isclose / an explicit tolerance",
                    )
                    break
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # DET105: set iteration on ordered-output paths
    # ------------------------------------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) \
                    and node.func.id in ("set", "frozenset"):
                return True
        return False

    def _iterates_set(self, iterable: ast.AST) -> bool:
        if self._is_set_expr(iterable):
            return True
        # Set algebra over literals/constructors or dict-key views:
        # `a.keys() - b`, `set(x) | set(y)` -- all hash-ordered.
        if isinstance(iterable, ast.BinOp) \
                and isinstance(iterable.op, (ast.BitOr, ast.BitAnd,
                                             ast.BitXor, ast.Sub)):
            sides = (iterable.left, iterable.right)
            if any(self._is_set_expr(side) for side in sides):
                return True
            if any(isinstance(side, ast.Call)
                   and isinstance(side.func, ast.Attribute)
                   and side.func.attr == "keys" for side in sides):
                return True
        return False

    def _check_iteration(self, iterable: ast.AST, node: ast.AST) -> None:
        if self._scope.ordered_output and self._iterates_set(iterable):
            self._report(
                "DET105", node,
                "iteration over a set feeds hash-dependent order into "
                "an ordered-output path",
                "wrap the iterable in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter, node.iter)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def check(self, tree: ast.AST) -> List[Diagnostic]:
        """Visit the tree and return diagnostics in source order."""
        self.visit(tree)

        for lineno, (ids, __) in self._suppressions.items():
            for rule_id in sorted(ids - KNOWN_RULE_IDS):
                self.diagnostics.append(Diagnostic(
                    rule_id="DET106", severity=Severity.ERROR,
                    location=f"{self._path}:{lineno}:0",
                    message=f"suppression names unknown rule id "
                            f"{rule_id}; it suppresses nothing",
                    fix_hint="fix the typo or drop the id (valid ids "
                             "come from the DET/FRC/FRS/ANA/EFF/MDL "
                             "catalogues)",
                ))

        def position(diagnostic: Diagnostic) -> Tuple[int, int, str]:
            __, line, col = diagnostic.location.rsplit(":", 2)
            return int(line), int(col), diagnostic.rule_id

        self.diagnostics.sort(key=position)
        return self.diagnostics


def check_file(source: SourceFile,
               scope: Optional[LintScope] = None) -> List[Diagnostic]:
    """Every ``DET*`` finding of one parsed module, in source order.

    A module that did not parse yields its single ``DET999`` finding.
    ``scope`` defaults to the one its display path implies.
    """
    if source.tree is None:
        assert source.syntax_error is not None
        return [source.syntax_error]
    return FileChecker(source.path, source.text, source.aliases,
                       scope or scope_for_path(source.path)
                       ).check(source.tree)


def lint_source(source: str, path: str = "<string>",
                scope: Optional[LintScope] = None) -> List[Diagnostic]:
    """Run the ``DET*`` rules over one module given as text; ``path``
    is the display path and decides the scope unless ``scope`` is given.
    """
    return check_file(parse_module(path, "", source), scope)
