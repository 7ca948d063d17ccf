"""The demos stay in step with the package: their imports resolve and the
fast one runs to completion."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def driftmc_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "driftmc":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    names = list(driftmc_imports(path))
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), \
            f"{path.name}: {module} has no {name!r}"


def test_isometry_demo_runs(capsys):
    # the measure-change demo simulates 200k paths; it is only import-checked
    runpy.run_path(str(DEMO_DIR / "01_drift_space_isometry.py"),
                   run_name="__main__")
    assert "tanh net" in capsys.readouterr().out
