"""The package builds offline: its build requirements are installed, and
every third-party module the tests import is a declared test dependency.
Every name the package exports, and every function the benchmark's
tracer wraps, resolves."""

import ast
import importlib
import importlib.util
import sys
import tomllib
from importlib import metadata
from pathlib import Path

from packaging.requirements import Requirement
from packaging.utils import canonicalize_name

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
TEST_FILES = sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("test_*.py")
)
# the package itself and the benchmark's modules, which its test imports
LOCAL_MODULES = {"homcx"} | {p.stem for p in (ROOT / "perfbench").glob("*.py")}


def _pyproject() -> dict:
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules a file imports absolutely."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_build_requirements_are_installed():
    for spec in _pyproject()["build-system"]["requires"]:
        req = Requirement(spec)
        version = metadata.version(req.name)  # raises if not installed
        assert req.specifier.contains(version, prereleases=True), (spec, version)


def test_test_imports_are_declared():
    declared = {
        canonicalize_name(Requirement(spec).name)
        for spec in _pyproject()["project"]["optional-dependencies"]["test"]
    }
    providers = metadata.packages_distributions()
    for path in TEST_FILES:
        for module in sorted(_imported_modules(path)):
            if module in sys.stdlib_module_names or module in LOCAL_MODULES:
                continue
            dists = {canonicalize_name(d) for d in providers.get(module, ())}
            assert dists & declared, f"{path.name} imports undeclared {module}"


def test_exports_resolve_once():
    import homcx

    names = homcx.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [name for name in names if not hasattr(homcx, name)]
    assert not missing, f"exported but not defined: {missing}"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing.WRAPPED:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"tracer wraps {module}.{attr}, which is gone"
