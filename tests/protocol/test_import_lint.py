"""Import hygiene: only backend packages may import backend packages.

The refactor's load-bearing invariant: every module in ``src/repro``
outside ``repro.flexray`` and ``repro.ttethernet`` depends only on the
neutral :mod:`repro.protocol` interface.  Backends are reached through
the string-path registry (:func:`repro.protocol.backend.get_backend`),
never through a static ``import`` -- so adding a third backend, or
deleting one, cannot ripple through the core.

Enforced by walking every module's AST: docstrings and registry path
strings are allowed to *name* backend packages; ``import`` statements
are not.
"""

import ast
from pathlib import Path

import repro

BACKEND_PACKAGES = ("repro.flexray", "repro.ttethernet")

SRC_ROOT = Path(repro.__file__).resolve().parent


def iter_core_modules():
    """Every repro module outside the backend packages."""
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT)
        if relative.parts[0] in ("flexray", "ttethernet"):
            continue
        yield path


def backend_imports_in(path):
    """All AST import statements in ``path`` that touch a backend package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offending = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative imports cannot leave repro.protocol
                continue
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if any(name == pkg or name.startswith(pkg + ".")
                   for pkg in BACKEND_PACKAGES):
                offending.append((node.lineno, name))
    return offending


class TestBackendImportIsolation:
    def test_core_modules_never_import_backend_packages(self):
        violations = {
            str(path.relative_to(SRC_ROOT.parent)): found
            for path in iter_core_modules()
            if (found := backend_imports_in(path))
        }
        assert not violations, (
            "core modules must reach backends through "
            "repro.protocol.backend.get_backend, not static imports: "
            f"{violations}"
        )

    def test_the_walk_is_not_vacuous(self):
        """The scan must actually cover the refactored core."""
        scanned = {p.relative_to(SRC_ROOT).parts[0]
                   for p in iter_core_modules() if p.name != "__init__.py"}
        for package in ("protocol", "core", "timeline", "verify",
                        "analysis", "service", "workloads", "experiments"):
            assert package in scanned, f"{package} missing from the scan"

    def test_the_detector_itself_works(self, tmp_path):
        """Guard against the checker silently matching nothing."""
        bad = tmp_path / "bad.py"
        bad.write_text("from repro.flexray.params import FlexRayParams\n"
                       "import repro.ttethernet.schedule\n")
        assert len(backend_imports_in(bad)) == 2


def package_body_in(path):
    """Line numbers of statements in a package ``__init__.py`` beyond
    its docstring (and, in the root package, ``__version__``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    extra = []
    for index, node in enumerate(tree.body):
        if index == 0 and isinstance(node, ast.Expr) and \
                isinstance(node.value, ast.Constant):
            continue
        if path.parent == SRC_ROOT and isinstance(node, ast.Assign) and \
                [ast.unparse(t) for t in node.targets] == ["__version__"]:
            continue
        extra.append(node.lineno)
    return extra


class TestNoReExports:
    """A name is imported from the module that defines it: no package
    ``__init__.py`` imports, lists ``__all__`` or defines anything."""

    def test_package_inits_hold_only_their_docstring(self):
        inits = sorted(SRC_ROOT.rglob("__init__.py"))
        assert len(inits) > 1
        violations = {
            str(path.relative_to(SRC_ROOT.parent)): lines
            for path in inits if (lines := package_body_in(path))
        }
        assert not violations, (
            "package __init__.py files keep only their docstring; "
            f"import names from their defining module: {violations}"
        )

    def test_the_detector_itself_works(self, tmp_path):
        shim = tmp_path / "__init__.py"
        shim.write_text('"""Doc."""\n\nfrom repro.obs.observability '
                        'import NULL_OBS\n\n__all__ = ["NULL_OBS"]\n')
        assert package_body_in(shim) == [3, 5]
