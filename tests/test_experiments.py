"""Tests for the experiment harness (runner, tables, timing)."""

from __future__ import annotations

import pytest

from repro.bench import mtm_like, mult_like
from repro.experiments import (
    ExperimentRow,
    comparison_table,
    format_table,
    geomean,
    make_engine,
    run_experiment,
    run_matrix,
    speedup_summary,
    table1_rows,
    to_seconds,
)
from repro.rewrite import RewriteResult
from repro.sat import check_equivalence_auto

from conftest import random_aig


def _factory():
    return mult_like(width=4)


class TestEngineRegistry:
    @pytest.mark.parametrize(
        "name",
        ["abc", "iccad18", "dacpara", "dacpara-p1", "dacpara-p2",
         "dacpara-novalidate", "gpu-dac22", "gpu-tcad23"],
    )
    def test_all_engines_instantiate(self, name):
        engine = make_engine(name, workers=4)
        assert hasattr(engine, "run")

    def test_unknown_engine(self):
        with pytest.raises(KeyError):
            make_engine("vivado")

    def test_gpu_default_workers(self):
        engine = make_engine("gpu-dac22")
        assert engine.config.workers == 9216


class TestRunExperiment:
    @pytest.mark.parametrize("name", ["abc", "dacpara", "gpu-dac22"])
    def test_row_contents(self, name):
        row = run_experiment(name, _factory, workers=4)
        assert row.cec_ok
        assert row.cec_method in ("exhaustive", "sat-sweep")
        assert row.result.area_before > 0
        assert row.wall_seconds > 0

    def test_matrix(self):
        rows = run_matrix(
            ["abc", "dacpara"], {"m4": _factory}, workers=4
        )
        assert len(rows) == 2
        assert {r.engine for r in rows} == {"abc", "dacpara"}
        assert all(r.benchmark == "m4" for r in rows)

    def test_check_skipped(self):
        row = run_experiment("dacpara", _factory, workers=4, check=False)
        assert row.cec_method == "skipped"


class TestVerifyEquivalence:
    """The runner's check is :func:`check_equivalence_auto`; its method
    lands in ``ExperimentRow.cec_method``."""

    def test_exhaustive_tier(self):
        a = _factory()
        assert check_equivalence_auto(a, a.copy()).method == "exhaustive"

    def test_sweep_tier(self):
        a = random_aig(num_pis=16, num_nodes=120, num_pos=4, seed=2)
        assert check_equivalence_auto(a, a.copy()).method == "sat-sweep"

    def test_simulation_tier(self):
        """The circuit the retired 4 096-pattern tier sampled (> 1 200
        ANDs, > 14 PIs) is now proved."""
        a = mtm_like(num_pis=20, num_nodes=1500, seed=4)
        row = run_experiment("dacpara", lambda: a.copy(), workers=4)
        assert a.num_ands > 1200
        assert row.cec_method == "sat-sweep"

    def test_detects_inequivalence(self, monkeypatch):
        from repro.experiments import runner

        b = _factory()
        b.set_po(0, b.po_lit(0) ^ 1)
        monkeypatch.setattr(runner, "make_engine", lambda *a, **k: _Corrupt())
        assert not check_equivalence_auto(_factory(), b).equivalent
        with pytest.raises(AssertionError):
            run_experiment("dacpara", _factory)


class _Corrupt:
    """An engine that complements PO 0."""

    def run(self, aig):
        aig.set_po(0, aig.po_lit(0) ^ 1)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["A", "BB"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # constant width

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 1.0
        assert geomean([0.0, 2.0]) == pytest.approx(2.0)  # zeros skipped

    def test_table1_rows(self):
        a = _factory()
        a.name = "mult_1xd"
        headers, rows = table1_rows([a])
        assert headers[0] == "Benchmark"
        assert rows[0][0] == "mult_1xd"
        assert int(rows[0][3]) == a.num_ands

    def test_comparison_table_normalized_mean(self):
        def fake_row(bench, engine, makespan, area):
            res = RewriteResult(
                engine=engine, workers=1, area_before=100, area_after=100 - area,
                delay_before=10, delay_after=10, makespan_units=makespan,
            )
            return ExperimentRow(bench, engine, res, True, "skipped", 0.0)

        rows = [
            fake_row("x", "fast", 100, 10),
            fake_row("x", "slow", 200, 10),
        ]
        headers, table = comparison_table(rows, ["fast", "slow"], baseline="fast")
        mean = table[-1]
        assert mean[0] == "Normalized Mean"
        assert float(mean[1]) == pytest.approx(1.0)      # fast vs fast
        assert float(mean[4]) == pytest.approx(2.0)      # slow time ratio

    def test_speedup_summary(self):
        def fake(bench, engine, makespan):
            res = RewriteResult(
                engine=engine, workers=1, area_before=10, area_after=10,
                delay_before=1, delay_after=1, makespan_units=makespan,
            )
            return ExperimentRow(bench, engine, res, True, "skipped", 0.0)

        rows = [fake("x", "a", 400), fake("x", "b", 100)]
        assert speedup_summary(rows, "a", "b") == pytest.approx(4.0)

    def test_to_seconds_positive(self):
        assert to_seconds(50_000) == pytest.approx(1.0)
