"""Ablation A2 — what produces DACPara's quality: level partitioning ×
dynamic validation.

A 2×2 grid on MtM-like circuits at the dense (222-class, 2-pass)
budget:

* ``partition=level`` — the paper's nodeDividing; same-list nodes start
  unrelated, so stored evaluations rarely go stale.
* ``partition=single`` — ablated: one global worklist; every
  replacement can invalidate later stored results (maximal staleness,
  the static-information regime).
* ``validate`` on/off — Section 4.4's replacement-time re-validation.

Expected shape: level-partitioned runs give the best area reduction
with validation almost never firing (the partitioning *is* the primary
staleness defence); with partitioning ablated, quality drops and the
validator visibly catches stale results (rejects ≫ 0).  All four
variants must stay functionally correct (equivalence-checked) — the
structural life-stamp gates guarantee soundness even in blind mode.
"""

from __future__ import annotations

import pytest

from repro.bench import make_mtm
from repro.config import gpu_config
from repro.core import DACParaRewriter
from repro.experiments import format_table
from repro.sat import check_equivalence_auto

from conftest import write_report

CIRCUITS = ["sixteen", "twenty"]
VARIANTS = [
    ("level", True),
    ("level", False),
    ("single", True),
    ("single", False),
]
_CELLS = {}


@pytest.mark.parametrize("circuit", CIRCUITS)
@pytest.mark.parametrize("partition,validate", VARIANTS)
def test_ablation_cell(benchmark, circuit, partition, validate):
    def cell():
        original = make_mtm(circuit)
        working = original.copy()
        rewriter = DACParaRewriter(
            gpu_config(workers=40), validate=validate, partition=partition
        )
        result = rewriter.run(working)
        assert check_equivalence_auto(original, working).equivalent
        return result

    result = benchmark.pedantic(cell, rounds=1, iterations=1)
    _CELLS[(circuit, partition, validate)] = result
    benchmark.extra_info.update(
        area_reduction=result.area_reduction,
        rejects=result.validation_failures,
    )


def test_ablation_report(benchmark):
    headers = ["Circuit", "Partition", "Validation", "AreaRed", "StaleRejects"]
    rows = []
    for circuit in CIRCUITS:
        for partition, validate in VARIANTS:
            res = _CELLS[(circuit, partition, validate)]
            rows.append([
                circuit, partition, "on" if validate else "off",
                res.area_reduction, res.validation_failures,
            ])
    text = format_table(headers, rows)
    text += (
        "\n\nReading: with level partitioning, same-list nodes start"
        "\nunrelated and stored results rarely go stale (rejects ~0) —"
        "\nthe divide-and-conquer itself is the primary quality defence."
        "\nWith partitioning ablated ('single'), staleness appears and"
        "\nthe Section 4.4 validator visibly catches it."
    )
    write_report("ablation_validation.txt", text)

    for circuit in CIRCUITS:
        level_v = _CELLS[(circuit, "level", True)]
        single_v = _CELLS[(circuit, "single", True)]
        # Partitioning must not hurt quality.
        assert level_v.area_reduction >= single_v.area_reduction
        # Ablating partitioning must surface staleness for the validator.
        assert single_v.validation_failures > level_v.validation_failures
