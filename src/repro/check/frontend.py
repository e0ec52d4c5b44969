"""The checker's one parse: file walk, ``ast.parse`` and import aliases.

Every rule family that reads source -- the per-file ``DET1xx``
determinism rules and the call-graph ``EFF3xx`` proofs -- runs over the
:class:`SourceFile` list :func:`read_sources` produces, so each module
is read and parsed exactly once and its import-alias map is built
once.  A file that does not decode or parse keeps its slot with
``tree=None`` and a ``DET999`` diagnostic; no rule family sees it
otherwise.  Files are decoded as the interpreter decodes them: by their
PEP 263 coding comment, else as UTF-8.

Files are visited in a fixed order (per directory: its ``.py`` files by
name, then its sub-directories by name), so reports never depend on
filesystem enumeration order.
"""

from __future__ import annotations

import ast
import os
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.verify.diagnostics import Diagnostic, Severity

__all__ = ["SourceFile", "read_sources", "parse_module", "python_files",
           "collect_aliases", "dotted_name"]


@dataclass
class SourceFile:
    """One module as the checker sees it."""

    path: str                       # display path of every diagnostic
    module: str                     # dotted module name
    text: str
    tree: Optional[ast.Module]      # None when the file does not parse
    aliases: Dict[str, str]         # import name -> dotted target
    syntax_error: Optional[Diagnostic] = None   # the DET999 finding


def collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """Every import binding anywhere in a module, as one map.

    ``import numpy.random as npr`` binds ``npr`` to ``numpy.random``;
    ``import os.path`` binds ``os`` to ``os``; ``from time import
    perf_counter as pc`` binds ``pc`` to ``time.perf_counter``.
    Relative imports bind nothing resolvable.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                aliases[alias.asname or root] = \
                    alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to a dotted string, expanding the
    import alias at its root (``npr.rand`` -> ``numpy.random.rand``).

    Returns ``None`` when the chain is not rooted at a plain name
    (``f().x``, ``a[0].b``).
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(aliases.get(current.id, current.id))
    return ".".join(reversed(parts))


def python_files(paths: Sequence[str]) -> Iterable[str]:
    """Every ``.py`` file under the given files/directories, in walk
    order (a directory's files by name, then its sub-directories)."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def parse_module(path: str, module: str, text: str) -> SourceFile:
    """Parse one module; a syntax error becomes a ``DET999`` finding."""
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as error:
        return SourceFile(
            path=path, module=module, text=text, tree=None, aliases={},
            syntax_error=Diagnostic(
                rule_id="DET999", severity=Severity.ERROR,
                location=f"{path}:{error.lineno or 0}:"
                         f"{error.offset or 0}",
                message=f"file does not parse: {error.msg}",
                fix_hint="fix the syntax error first",
            ))
    return SourceFile(path=path, module=module, text=text, tree=tree,
                      aliases=collect_aliases(tree))


def _undecodable(path: str, module: str, error: Exception) -> SourceFile:
    """A file whose bytes do not decode: one ``DET999`` finding."""
    reason = error.msg if isinstance(error, SyntaxError) else str(error)
    return SourceFile(
        path=path, module=module, text="", tree=None, aliases={},
        syntax_error=Diagnostic(
            rule_id="DET999", severity=Severity.ERROR,
            location=f"{path}:0:0",
            message=f"file cannot be decoded: {reason}",
            fix_hint="save the file as UTF-8 or declare its encoding "
                     "in a PEP 263 coding comment",
        ))


def _module_name(path: Path, root: Path) -> str:
    """``src/repro/core/queueing.py`` -> ``repro.core.queueing``."""
    parts = list(path.relative_to(root).parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3]
    return ".".join([root.name] + parts) if parts else root.name


def read_sources(roots: Sequence[str],
                 extra_sources: Optional[
                     Dict[str, Tuple[str, str]]] = None
                 ) -> List[SourceFile]:
    """Read and parse every module under ``roots`` (files or package
    directories), once.

    Display paths are the walk paths under each root as given; module
    names are relative to each root, with the root's directory name as
    the top package.  ``extra_sources`` (``module_name ->
    (display_path, source)``) appends in-memory modules in module order.
    """
    files: List[SourceFile] = []
    for root in roots:
        base = Path(root)
        if os.path.isfile(root):
            base = base.parent
        for path in python_files([root]):
            module = _module_name(Path(path), base)
            try:
                with tokenize.open(path) as handle:
                    text = handle.read()
            except (SyntaxError, UnicodeDecodeError) as error:
                files.append(_undecodable(path, module, error))
                continue
            files.append(parse_module(path, module, text))
    for module, (display, text) in sorted((extra_sources or {}).items()):
        files.append(parse_module(display, module, text))
    return files
