"""Shared infrastructure for the reproduction benchmarks.

Every ``bench_table*.py``/``bench_fig*.py`` file regenerates one table
or figure of the paper.  Cells (engine × circuit) are measured with
pytest-benchmark (single round — these are macro-benchmarks), collected
into module-level row lists, and a final ``*_report`` test formats the
paper-style table, prints it, and writes it under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.aig import Aig
from repro.bench import make_epfl, make_mtm, epfl_names, mtm_names

RESULTS_DIR = Path(__file__).parent / "results"


def results_path(name: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR / name


def epfl_factories() -> Dict[str, Callable[[], Aig]]:
    return {name: (lambda n=name: make_epfl(n)) for name in epfl_names()}


def mtm_factories() -> Dict[str, Callable[[], Aig]]:
    return {name: (lambda n=name: make_mtm(n)) for name in mtm_names()}


def all_factories() -> Dict[str, Callable[[], Aig]]:
    out = epfl_factories()
    out.update(mtm_factories())
    return out


def write_report(filename: str, text: str) -> None:
    path = results_path(filename)
    path.write_text(text + "\n")
    print()
    print(text)
    print(f"[written to {path}]")


# A ladder self-check that a later change made stale while
# ``benchmarks/ladder/`` was closed to it (``BENCHMARK.json`` ``paths``).
# It ends in ``cuts.fresh_cuts_calls > 0``; closure waves (PR 17) empty
# that layer on every in-process run.  Strict: the benchmark-only PR
# that relaxes the assert (ROADMAP hygiene item (g)) must delete this,
# and tests/test_ladder_inproc.py with it, which pins the rest of the
# check in the meantime.
STALE_SELF_CHECK = (
    "ladder/test_ladder.py::test_inproc_run_reads_zero_on_every_pool_metric")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.endswith(STALE_SELF_CHECK):
            item.add_marker(pytest.mark.xfail(
                reason="pins cuts.fresh_cuts_calls > 0 (see conftest.py)",
                strict=True))
