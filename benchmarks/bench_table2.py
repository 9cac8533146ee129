"""Table 2 — ABC (serial) vs ICCAD'18 (40 workers) vs DACPara (40
workers) on the twelve benchmarks: time, area reduction, delay, and the
normalized-mean row.

Paper expectations (shape): DACPara far faster than serial, faster than
ICCAD'18 on the MtM circuits (where fused locks collapse), roughly
comparable elsewhere — slightly slower on very deep circuits
(sqrt/hyp/div) because of per-level barriers; area reduction within a
fraction of serial; delay basically unchanged.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    comparison_table,
    format_table,
    run_experiment,
    speedup_summary,
)

from conftest import all_factories, write_report

ENGINES = ["abc", "iccad18", "dacpara"]
_FACTORIES = all_factories()
_ROWS = []


@pytest.mark.parametrize("bench_name", list(_FACTORIES))
@pytest.mark.parametrize("engine", ENGINES)
def test_table2_cell(benchmark, engine, bench_name):
    factory = _FACTORIES[bench_name]

    def cell():
        return run_experiment(engine, factory, workers=None, check=True)

    row = benchmark.pedantic(cell, rounds=1, iterations=1)
    row.benchmark = bench_name
    _ROWS.append(row)
    benchmark.extra_info.update(
        area_reduction=row.result.area_reduction,
        delay=row.result.delay_after,
        makespan_units=row.result.makespan_units,
        conflicts=row.result.conflicts,
        cec=row.cec_method,
    )
    assert row.cec_ok
    assert row.cec_method in {"exhaustive", "sat-sweep"}


def test_table2_report(benchmark):
    assert _ROWS
    headers, rows = comparison_table(_ROWS, ENGINES, baseline="dacpara")
    text = format_table(headers, rows)
    abc_speedup = speedup_summary(_ROWS, "abc", "dacpara")
    iccad_speedup = speedup_summary(_ROWS, "iccad18", "dacpara")
    text += (
        f"\n\nDACPara speedup vs ABC (geomean):      {abc_speedup:.2f}x"
        f"\nDACPara speedup vs ICCAD'18 (geomean): {iccad_speedup:.2f}x"
        f"\n(paper: 34.36x and 1.96x on 5-58M-node circuits at 40 cores)"
    )
    write_report("table2.txt", text)
    # Shape assertions.
    assert abc_speedup > 3.0, "DACPara must be far faster than serial"
    # Quality: DACPara within 15% of serial area reduction overall.
    total = {}
    for row in _ROWS:
        total.setdefault(row.engine, 0)
        total[row.engine] += row.result.area_reduction
    assert total["dacpara"] >= 0.85 * total["abc"]
