"""Public-API contract tests.

Every name a module advertises in ``__all__`` must exist and carry a
docstring -- the contract downstream users rely on.  Packages re-export
nothing, so the contract is checked module by module, grouped by
package.  Catches export drift (a renamed symbol leaving a stale
``__all__`` entry) that unit tests of the modules themselves never see.

The imports of every fenced ``python`` block in ``README.md`` and
``docs/*.md`` must also keep working.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]
SRC_ROOT = Path(repro.__file__).resolve().parent

_PACKAGES = sorted(
    ".".join(("repro",) + path.parent.relative_to(SRC_ROOT).parts)
    for path in SRC_ROOT.rglob("__init__.py"))


def _modules_of(package_name):
    """The package's own modules that declare ``__all__``, imported."""
    directory = SRC_ROOT.joinpath(*package_name.split(".")[1:])
    modules = []
    for path in sorted(directory.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"{package_name}.{path.stem}")
        if hasattr(module, "__all__"):
            modules.append(module)
    assert modules, f"{package_name} has no module with __all__"
    return modules


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_all_exports_exist(package_name):
    for module in _modules_of(package_name):
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ lists {name!r} but it is missing"
            )


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_exports_documented(package_name):
    undocumented = []
    for module in _modules_of(package_name):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, (
        f"{package_name}: exports without docstrings: {undocumented}"
    )


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_package_docstring(package_name):
    package = importlib.import_module(package_name)
    assert (package.__doc__ or "").strip(), (
        f"{package_name} has no package docstring"
    )


_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_DOCS = [doc for doc in [REPO / "README.md",
                         *sorted((REPO / "docs").glob("*.md"))]
         if "```python" in doc.read_text(encoding="utf-8")]


@pytest.mark.parametrize("doc", _DOCS, ids=lambda path: path.name)
def test_doc_imports_resolve(doc):
    """Run the ``import`` lines of every fenced ``python`` block."""
    for block in _PYTHON_BLOCK.findall(doc.read_text(encoding="utf-8")):
        tree = ast.parse(block)
        tree.body = [node for node in tree.body
                     if isinstance(node, (ast.Import, ast.ImportFrom))]
        exec(compile(tree, str(doc), "exec"), {})


def test_scheduler_registry_matches_policies():
    from repro.experiments.runner import SCHEDULERS, make_policy
    from repro.faults.ber import BitErrorRateModel
    from repro.packing.frame_packing import pack_signals
    from repro.flexray.params import FlexRayParams
    from repro.protocol.signal import Signal, SignalSet

    params = FlexRayParams(
        gd_cycle_mt=800, gd_static_slot_mt=40,
        g_number_of_static_slots=10, gd_minislot_mt=8,
        g_number_of_minislots=40,
    )
    packing = pack_signals(SignalSet([
        Signal(name="s", ecu=0, period_ms=0.8, offset_ms=0.0,
               deadline_ms=0.8, size_bits=64),
    ]), params)
    names = set()
    for scheduler in SCHEDULERS:
        policy = make_policy(scheduler, packing,
                             BitErrorRateModel(ber_channel_a=0.0))
        names.add(policy.name)
    assert len(names) == len(SCHEDULERS)  # distinct display names
