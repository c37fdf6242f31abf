"""The public API holds only what the package and its demos use.

A name in noisytopk.__all__ that only tests call is a test helper and
belongs in tests/conftest.py, not in the package.  Every third-party
package the tests import is declared in pyproject.toml.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import noisytopk

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "noisytopk").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _references(tree: ast.AST, skip: str | None = None):
    """Identifiers read in tree (names and attributes), leaving out the body of the def or class named skip."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        yield from _references(node, skip)


@pytest.mark.parametrize("name", noisytopk.__all__)
def test_public_name_is_used_by_the_package_or_a_demo(name):
    users = [
        path.relative_to(ROOT).as_posix()
        for path in SOURCES
        if path.name != "__init__.py" and name in set(_references(ast.parse(path.read_text()), skip=name))
    ]
    assert users, f"{name} is exported but used only by tests; move it to tests/conftest.py"


def _requirement_name(spec: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")


def test_test_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {_requirement_name(spec) for spec in project["dependencies"] + project["optional-dependencies"]["test"]}
    local = set(sys.stdlib_module_names) | {"noisytopk", "conftest"}
    imported = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - local - declared) == []
