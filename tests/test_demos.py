"""The demos and the benchmark stay in step with the package: the names
they import from it resolve, and the demo runs to completion."""

import ast
import importlib
import importlib.util
import inspect
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMO_DIR = ROOT / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
BENCHMARK_FILES = sorted((ROOT / "perfbench").glob("*.py"))


def driftmc_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "driftmc":
            for alias in node.names:
                yield node.module, alias.name


def resolves(module, name):
    """``from module import name`` works: an attribute, or a submodule of a
    package."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    return (hasattr(mod, "__path__")
            and importlib.util.find_spec(f"{module}.{name}") is not None)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    names = list(driftmc_imports(path))
    assert names
    for module, name in names:
        assert resolves(module, name), f"{path.name}: {module} has no {name!r}"


def test_benchmark_imports_resolve():
    # the benchmark runs against this tree; a name it imports must not go
    names = [(path, module, name) for path in BENCHMARK_FILES
             for module, name in driftmc_imports(path)]
    assert names
    for path, module, name in names:
        assert resolves(module, name), f"{path.name}: {module} has no {name!r}"


def test_benchmark_hooked_names_resolve(monkeypatch):
    # the benchmark also wraps driftmc attributes by name; a hooked name
    # must not go either
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    hooks = workloads.stage_hooks() + workloads.layer_hooks()
    assert hooks
    missing = [f"{hook.owner.__name__}.{hook.attr}" for hook in hooks
               if inspect.getattr_static(hook.owner, hook.attr, None) is None]
    assert missing == []


def test_isometry_demo_runs(capsys):
    runpy.run_path(str(DEMO_DIR / "01_drift_space_isometry.py"),
                   run_name="__main__")
    # the demo asserts its closed-form tanh drift is within dt of the map
    assert "tanh net" in capsys.readouterr().out
