"""Packaging: the code imports only what ``pyproject.toml`` declares.

A clean install gets exactly the declared dependencies (plus the
``test`` extra in CI), so an undeclared third-party import is an import
error waiting for the first clean runner.  Scanned statically with
:mod:`ast`, so nothing here needs the packages installed.
"""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Top-level import names that are this repository's own code.
LOCAL = {"repro", "tests", "conftest"}


def _declared(requirements) -> set[str]:
    """Import-style names of PEP 508 requirement strings."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
            .replace("-", "_") for req in requirements}


def _third_party(path: pathlib.Path, *, module_level: bool) -> set[str]:
    """Top-level names of the non-stdlib imports in one file.

    ``module_level`` skips function bodies — the imports that run when
    the module is imported, including those under ``if`` / ``try``.
    """
    names = set()
    stack = [ast.parse(path.read_text(encoding="utf-8"))]
    while stack:
        node = stack.pop()
        if module_level and isinstance(node, (ast.FunctionDef,
                                              ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return {name for name in names
            if name not in sys.stdlib_module_names and name not in LOCAL}


@pytest.fixture(scope="module")
def project() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_package_imports_are_declared_dependencies(project):
    declared = _declared(project["dependencies"])
    undeclared = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in _third_party(path, module_level=True)
        if name.lower() not in declared}
    assert not undeclared, sorted(undeclared)


def test_test_imports_are_covered_by_the_test_extra(project):
    declared = _declared(project["dependencies"]
                         + project["optional-dependencies"]["test"])
    undeclared = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in (ROOT / "tests").rglob("*.py")
        for name in _third_party(path, module_level=False)
        if name.lower() not in declared}
    assert not undeclared, sorted(undeclared)
