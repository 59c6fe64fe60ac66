"""The package builds offline: its build requirements are installed."""

import tomllib
from importlib import metadata
from pathlib import Path

from packaging.requirements import Requirement

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_build_requirements_are_installed():
    with PYPROJECT.open("rb") as fh:
        requires = tomllib.load(fh)["build-system"]["requires"]
    for spec in requires:
        req = Requirement(spec)
        version = metadata.version(req.name)  # raises if not installed
        assert req.specifier.contains(version, prereleases=True), (spec, version)
