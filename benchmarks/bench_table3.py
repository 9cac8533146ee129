"""Table 3 — the MtM set: ICCAD'18, DAC'22 (GPU), TCAD'23 (GPU),
DACPara-P1, DACPara-P2.

P1 = 134 classes, ≤8 cuts, ≤5 structures, 2 passes (the GPU works use
the same budget but all 222 classes).  P2 = ICCAD'18-equivalent
settings, 1 pass.  Paper expectations (shape): DACPara-P2 ~4.4x faster
than ICCAD'18 on these circuits; the GPU models are fastest in wall
time (9216 workers) but lose area reduction to the dynamic engines
because they apply stale static gains.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    comparison_table,
    format_table,
    run_experiment,
    speedup_summary,
)

from conftest import mtm_factories, write_report

ENGINES = ["iccad18", "gpu-dac22", "gpu-tcad23", "dacpara-p1", "dacpara-p2",
           "dacpara-222"]
_FACTORIES = mtm_factories()
_ROWS = []


@pytest.mark.parametrize("bench_name", list(_FACTORIES))
@pytest.mark.parametrize("engine", ENGINES)
def test_table3_cell(benchmark, engine, bench_name):
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
        validation_failures=row.result.validation_failures,
    )
    assert row.cec_ok
    assert row.cec_method in {"exhaustive", "sat-sweep"}


def test_table3_report(benchmark):
    assert _ROWS
    headers, rows = comparison_table(_ROWS, ENGINES, baseline="dacpara-p2")
    text = format_table(headers, rows)
    iccad_speedup = speedup_summary(_ROWS, "iccad18", "dacpara-p2")
    totals = {}
    for row in _ROWS:
        totals.setdefault(row.engine, 0)
        totals[row.engine] += row.result.area_reduction
    static_best = max(totals["gpu-dac22"], totals["gpu-tcad23"])
    quality_gain = 100.0 * (totals["dacpara-222"] - static_best) / max(static_best, 1)
    text += (
        f"\n\nDACPara-P2 speedup vs ICCAD'18 on MtM (geomean): {iccad_speedup:.2f}x"
        f"\n(paper: 4.37x; GPU rows use 9216 simulated lock-free workers)"
        f"\n\nQuality, dynamic vs static at the SAME budget (222 classes, 8"
        f"\ncuts, 5 structures, 2 passes): dacpara-222 reduces"
        f" {totals['dacpara-222']} vs best static {static_best}"
        f" ({quality_gain:+.1f}%; paper: +1.1% for DACPara-P2 vs GPU)."
        f"\nNote: at this circuit scale the GPU engines' larger class set"
        f"\noutweighs their staleness loss in the raw columns; the"
        f"\nsame-budget line isolates the paper's mechanism."
    )
    write_report("table3.txt", text)
    # Shape: the fused-lock baseline must collapse on these circuits.
    assert iccad_speedup > 2.0
    # The paper's quality mechanism: at an identical budget, dynamic
    # validation must reduce at least as much as static application.
    assert totals["dacpara-222"] >= static_best
    assert totals["dacpara-p2"] > 0
