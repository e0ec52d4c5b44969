"""AST call graph over ``src/repro`` (the ``EFF3xx`` substrate).

Takes the modules of the checker's one parse
(:func:`repro.check.frontend.read_sources`; no imports are executed),
collects classes with their resolved base-class chains and methods, and
summarizes every function body via
:func:`repro.check.effects.summarize_function`.  The result is a
:class:`Project`: enough structure to resolve ``self.m()`` through a
concrete class's MRO, follow ``super().m()`` past the defining class,
chase module-level helper calls across modules, and close primitive
effects (RNG, wall-clock, global writes) over the whole graph.

MRO approximation: a left-to-right depth-first linearization with
duplicates dropped.  The repo's policy hierarchy is single-inheritance
(``SchedulerPolicy`` -> ``QueueingPolicyBase`` -> concrete policies),
where this coincides with C3; diamond hierarchies would resolve in
definition order, which is still deterministic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.check.effects import FunctionSummary, summarize_function
from repro.check.frontend import SourceFile, dotted_name

__all__ = ["Project", "ClassInfo", "FunctionInfo", "build_project"]


@dataclass
class FunctionInfo:
    """One function or method."""

    qualname: str            # module.Class.method or module.func
    module: str
    class_qualname: Optional[str]
    path: str
    summary: FunctionSummary
    node: ast.AST = field(default=None, repr=False)  # type: ignore[assignment]


@dataclass
class ClassInfo:
    """One class definition with resolved bases."""

    qualname: str            # module.ClassName
    name: str
    module: str
    path: str
    lineno: int
    base_names: List[str] = field(default_factory=list)  # qualified/raw
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class Project:
    """The parsed project: classes, functions, and resolution helpers."""

    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: module name -> import-alias map (name -> dotted target)
    aliases: Dict[str, Dict[str, str]] = field(default_factory=dict)

    # -- class resolution ----------------------------------------------

    def resolve_class(self, module: str, name: str) -> Optional[ClassInfo]:
        """Resolve a class name as seen from ``module``."""
        dotted = self.aliases.get(module, {}).get(name)
        if dotted is not None and dotted in self.classes:
            return self.classes[dotted]
        local = f"{module}.{name}"
        if local in self.classes:
            return self.classes[local]
        # A fully qualified name used verbatim.
        return self.classes.get(name) or self.classes.get(dotted or "")

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Left-to-right depth-first linearization (see module doc)."""
        order: List[ClassInfo] = []
        seen: Set[str] = set()

        def walk(current: ClassInfo) -> None:
            if current.qualname in seen:
                return
            seen.add(current.qualname)
            order.append(current)
            for base_name in current.base_names:
                base = self.resolve_class(current.module, base_name)
                if base is not None:
                    walk(base)

        walk(cls)
        return order

    def resolve_method(self, cls: ClassInfo,
                       name: str) -> Optional[FunctionInfo]:
        """Resolve a method name through ``cls``'s MRO."""
        for ancestor in self.mro(cls):
            if name in ancestor.methods:
                return ancestor.methods[name]
        return None

    def resolve_method_after(self, cls: ClassInfo, defining: str,
                             name: str) -> Optional[FunctionInfo]:
        """Resolve ``super().name`` as called from ``defining``."""
        mro = self.mro(cls)
        past_defining = False
        for ancestor in mro:
            if past_defining and name in ancestor.methods:
                return ancestor.methods[name]
            if ancestor.qualname == defining:
                past_defining = True
        return None

    def subclasses_of(self, root_qualname: str) -> List[ClassInfo]:
        """Every class whose MRO contains ``root_qualname`` (excl. root)."""
        found = []
        for cls in self.classes.values():
            if cls.qualname == root_qualname:
                continue
            if any(a.qualname == root_qualname for a in self.mro(cls)):
                found.append(cls)
        return sorted(found, key=lambda c: c.qualname)

    def resolve_plain_call(self, module: str,
                           dotted: str) -> Optional[FunctionInfo]:
        """Resolve a plain/dotted call target to a module-level function.

        ``dotted`` is already alias-expanded by the summarizer, so
        ``compile_round`` arrives as
        ``repro.timeline.compiler.compile_round``.
        """
        if dotted in self.functions:
            return self.functions[dotted]
        local = f"{module}.{dotted}"
        return self.functions.get(local)


def build_project(sources: Sequence[SourceFile]) -> Project:
    """Collect the classes and functions of parsed modules.

    Args:
        sources: The parsed modules; one that did not parse (its
            ``DET999`` is reported by the determinism rules) is
            skipped.
    """
    project = Project()
    for source in sources:
        if source.tree is None:
            continue
        project.aliases[source.module] = source.aliases
        for node in source.tree.body:
            _collect_toplevel(project, node, source.module, source.path,
                              source.aliases)
    return project


def _collect_toplevel(project: Project, node: ast.stmt, module: str,
                      display: str, aliases: Dict[str, str]) -> None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        qualname = f"{module}.{node.name}"
        project.functions[qualname] = FunctionInfo(
            qualname=qualname, module=module, class_qualname=None,
            path=display,
            summary=summarize_function(qualname, node, aliases),
            node=node,
        )
        return
    if isinstance(node, ast.If):
        # `if TYPE_CHECKING:` style guards still define real names.
        for child in node.body + node.orelse:
            _collect_toplevel(project, child, module, display, aliases)
        return
    if not isinstance(node, ast.ClassDef):
        return
    qualname = f"{module}.{node.name}"
    info = ClassInfo(qualname=qualname, name=node.name, module=module,
                     path=display, lineno=node.lineno)
    for base in node.bases:
        if isinstance(base, ast.Name):
            info.base_names.append(base.id)
        elif isinstance(base, ast.Attribute):
            dotted = dotted_name(base, aliases)
            if dotted is not None:
                info.base_names.append(dotted)
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method_qual = f"{qualname}.{child.name}"
            function = FunctionInfo(
                qualname=method_qual, module=module,
                class_qualname=qualname, path=display,
                summary=summarize_function(method_qual, child, aliases),
                node=child,
            )
            info.methods[child.name] = function
            project.functions[method_qual] = function
    project.classes[qualname] = info
