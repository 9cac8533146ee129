"""Smoke tests: every example script must run cleanly (the long-running
ones must at least import)."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)
# Exercised end to end by the benchmarks; tier-1 only imports them.
LONG_RUNNING = ("epfl_flow.py", "parallel_scaling.py")


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "epfl_flow.py", "stale_cut_demo.py",
            "parallel_scaling.py"} <= names


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    if script.name in LONG_RUNNING:
        spec = importlib.util.spec_from_file_location(script.stem, script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
        return
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
