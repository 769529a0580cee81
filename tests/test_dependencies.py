"""The declared dependencies match what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
# import name -> distribution name, where they differ
DISTRIBUTIONS = {"yaml": "pyyaml"}


def third_party_imports():
    names = set()
    for path in (ROOT / "src" / "lsw").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    names -= set(sys.stdlib_module_names) | {"lsw"}
    return {DISTRIBUTIONS.get(name, name) for name in names}


def test_declared_dependencies_match_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
        for dep in project["dependencies"]
    }
    assert third_party_imports() == declared
