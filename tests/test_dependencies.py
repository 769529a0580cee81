"""The declared dependencies match what the package imports, and the
functions the benchmark traces exist."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
# import name -> distribution name, where they differ
DISTRIBUTIONS = {"yaml": "pyyaml"}


def third_party_imports(directory):
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    local = {path.stem for path in directory.glob("*.py")}
    names -= set(sys.stdlib_module_names) | {"lsw"} | local
    return {DISTRIBUTIONS.get(name, name) for name in names}


def declared(deps):
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in deps}


def test_declared_dependencies_match_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert third_party_imports(ROOT / "src" / "lsw") == declared(project["dependencies"])


def test_test_imports_are_declared():
    # the suite may import the runtime dependencies and the `test` extra only
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    allowed = declared(project["dependencies"]) | declared(
        project["optional-dependencies"]["test"]
    )
    assert third_party_imports(ROOT / "tests") <= allowed
    assert "hypothesis" in third_party_imports(ROOT / "tests")


def test_cli_import_skips_lazy_scipy_modules():
    # only match_eigenvalues needs scipy.optimize, and no CLI task calls it;
    # importing it added about 0.2 s and 17 MB of RSS to every CLI start.
    # scipy.sparse.linalg loads only where propagate takes expm_multiply
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, lsw.cli; print(sorted(m for m in sys.modules"
        " if m.startswith(('scipy.optimize', 'scipy.sparse.linalg'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_benchmark_traced_layers_resolve(monkeypatch):
    # perfbench/run.py --trace 1 looks up every (module, function) of
    # perfbench/spans.py LAYERS by getattr, so a deleted or renamed layer
    # function breaks the traced benchmark; spans.py is only read here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert spans.LAYERS and missing == []
