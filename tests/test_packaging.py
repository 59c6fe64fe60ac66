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
# the package itself, the benchmark's modules, which its test imports, and
# the tests' own helper modules
LOCAL_MODULES = (
    {"homcx"}
    | {p.stem for p in (ROOT / "perfbench").glob("*.py")}
    | {p.stem for p in (ROOT / "tests").glob("*.py")}
)


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


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id == "ImportError" for t in types)


def _dotted(node: ast.Attribute) -> str:
    """``a.b.c`` for an attribute chain on a plain name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id] + parts[::-1])


def _benchmark_references(path: Path) -> set[str]:
    """Every homcx module, name and attribute a benchmark file imports or
    reads, as dotted names.  Imports inside a ``try`` that catches
    ImportError are left out: the benchmark expects those may fail."""
    tree = ast.parse(path.read_text())
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(map(_catches_import_error, node.handlers)):
            guarded.update(id(inner) for stmt in node.body for inner in ast.walk(stmt))
    refs = set()
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            refs.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            refs.add(_dotted(node))
    return {ref for ref in refs if ref.split(".")[0] == "homcx"}


def _resolves(dotted: str) -> bool:
    """Whether the longest importable prefix of ``dotted`` has the rest
    as a chain of attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_benchmark_imports_resolve():
    refs = {
        (path.name, ref)
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for ref in _benchmark_references(path)
    }
    assert refs, "the benchmark reads nothing from homcx"
    missing = sorted((name, ref) for name, ref in refs if not _resolves(ref))
    assert not missing, f"the benchmark reads names homcx lacks: {missing}"
