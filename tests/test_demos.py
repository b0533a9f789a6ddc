import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    # running demos 02-04 takes seconds each; a removed name fails here fast
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "gpoly"]
    assert imports
    missing = [f"{node.module}.{alias.name}" for node in imports
               for alias in node.names
               if not hasattr(importlib.import_module(node.module),
                              alias.name)]
    assert not missing


def _run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_demo_01_sample_and_enumerate():
    proc = _run_demo("01_sample_and_enumerate.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("general position: ok") for line in lines)
    assert any(line.startswith("convex hull has ") and "facets" in line
               for line in lines)
    assert any("estranged pairs" in line for line in lines)


def test_demo_04_verification_suite():
    # runs every verify_* call of the demo, so a changed signature fails here
    proc = _run_demo("04_verification_suite.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].endswith("/18 checks passed")
    assert sum(" z=" in line for line in lines) == 18
