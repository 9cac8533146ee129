"""Extension bench — DACPara's divide-and-conquer applied to a second
operator (large-cut refactoring).

The paper's conclusion claims the approach "is scalable and can be
continuously explored" beyond the rewrite operator.  This bench
applies the same three-stage skeleton (level worklists, lock-free
evaluation, short validated replacement) to ABC-style refactoring and
measures the same quantities as Table 2: simulated speedup vs the
serial pass at equal quality.
"""

from __future__ import annotations

import pytest

from repro.bench import make_epfl, make_mtm
from repro.experiments import format_table, to_seconds
from repro.opt import ParallelRefactor, RefactorEngine
from repro.sat import check_equivalence_auto

from conftest import write_report

CIRCUITS = ["mult", "sixteen"]
_CELLS = {}


def _factory(name):
    return make_epfl(name) if name == "mult" else make_mtm(name)


@pytest.mark.parametrize("circuit", CIRCUITS)
@pytest.mark.parametrize("engine", ["serial", "dacpara"])
def test_refactor_cell(benchmark, circuit, engine):
    def cell():
        original = _factory(circuit)
        working = original.copy()
        # max_leaves=8 keeps the ISOP windows small enough for the
        # whole benchmark suite to stay within its time budget.
        if engine == "serial":
            result = RefactorEngine(max_leaves=8).run(working)
        else:
            result = ParallelRefactor(workers=40, max_leaves=8).run(working)
        assert check_equivalence_auto(original, working).equivalent
        return result

    result = benchmark.pedantic(cell, rounds=1, iterations=1)
    _CELLS[(circuit, engine)] = result
    benchmark.extra_info.update(area_reduction=result.area_reduction)


def test_refactor_report(benchmark):
    headers = ["Circuit", "Serial AreaRed", "Parallel AreaRed",
               "Parallel makespan(s)", "Conflicts"]
    rows = []
    for circuit in CIRCUITS:
        s = _CELLS[(circuit, "serial")]
        p = _CELLS[(circuit, "dacpara")]
        rows.append([
            circuit, s.area_reduction, p.area_reduction,
            f"{to_seconds(p.makespan_units):.2f}", p.conflicts,
        ])
    text = format_table(headers, rows)
    text += (
        "\n\nThe DACPara three-stage skeleton applied to the refactor"
        "\noperator: lock-free large-cut evaluation (cut finding, cone"
        "\nsimulation, ISOP, factoring), short locked replacement with"
        "\nexact gain re-checks — the paper's claimed generality."
    )
    write_report("extension_refactor.txt", text)
    for circuit in CIRCUITS:
        s = _CELLS[(circuit, "serial")]
        p = _CELLS[(circuit, "dacpara")]
        # Parallel quality within a modest factor of serial.
        assert p.area_reduction >= 0.6 * s.area_reduction
