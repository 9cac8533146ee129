"""Tests for RewriteConfig and the paper's parameter presets."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro.config
from repro.aig import Aig
from repro.cli import main
from repro.config import (
    RewriteConfig,
    abc_rewrite_config,
    dacpara_config,
    dacpara_p1_config,
    dacpara_p2_config,
    gpu_config,
    iccad18_config,
)
from repro.core import DACParaRewriter
from repro.cuts import CutManager
from repro.errors import ConfigError, CutError


class TestValidation:
    def test_defaults_valid(self):
        cfg = RewriteConfig()
        assert len(cfg.allowed_classes) == 134

    def test_only_4_input_cuts(self):
        assert CutManager(Aig()).k == 4
        with pytest.raises(CutError):
            CutManager(Aig(), k=5)

    def test_passes_positive(self):
        with pytest.raises(ConfigError):
            RewriteConfig(passes=0)

    def test_workers_positive(self):
        with pytest.raises(ConfigError):
            RewriteConfig(workers=0)

    def test_max_cuts_validation(self):
        with pytest.raises(ConfigError):
            RewriteConfig(max_cuts=0)
        assert RewriteConfig(max_cuts=None).max_cuts is None

    def test_max_structs_validation(self):
        with pytest.raises(ConfigError):
            RewriteConfig(max_structs=-1)

    def test_bad_class_set(self):
        with pytest.raises(ValueError):
            RewriteConfig(npn_classes="all65536")

    def test_frozen(self):
        cfg = RewriteConfig()
        with pytest.raises(Exception):
            cfg.workers = 99

    def test_with_workers(self):
        cfg = RewriteConfig().with_workers(16)
        assert cfg.workers == 16


def test_runtime_knobs_are_gone(capsys):
    for knob in ("cut_size", "delta_max_fraction", "shared_memory",
                 "chunk_max_retries", "pool_restart_budget",
                 "wall_telemetry", "seed"):
        with pytest.raises(TypeError):
            RewriteConfig(**{knob: 1})
    with pytest.raises(TypeError):
        DACParaRewriter(executor_kind="simulated")
    assert len(dataclasses.fields(RewriteConfig)) == 15
    for argv in (["--no-shm"], ["--delta-max-fraction", "0.5"],
                 ["--chunk-retries", "1"], ["--pool-restart-budget", "1"],
                 ["--executor", "serial"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["rewrite", *argv, "x.aig"])
        assert exit_info.value.code == 2
    capsys.readouterr()  # argparse usage noise
    # The fault plan is validated by the faults module, not the executor.
    assert "procpool" not in inspect.getsource(repro.config)
    with pytest.raises(ConfigError, match="fault-plan"):
        RewriteConfig(fault_plan="explode@eval:0")


class TestPresets:
    def test_abc_is_serial(self):
        assert abc_rewrite_config().workers == 1

    def test_p1_matches_paper(self):
        """P1: 8 cuts, 5 structures, 2 passes, 134 classes."""
        cfg = dacpara_p1_config()
        assert cfg.max_cuts == 8
        assert cfg.max_structs == 5
        assert cfg.passes == 2
        assert cfg.npn_classes == "common134"

    def test_p2_matches_paper(self):
        """P2: ICCAD'18 settings — unlimited, one pass, 134 classes."""
        cfg = dacpara_p2_config()
        assert cfg.max_cuts is None
        assert cfg.max_structs is None
        assert cfg.passes == 1

    def test_gpu_matches_paper(self):
        """GPU works: 222 classes, 8 cuts, 5 structures, 2 executions."""
        cfg = gpu_config()
        assert cfg.npn_classes == "all222"
        assert cfg.max_cuts == 8
        assert cfg.max_structs == 5
        assert cfg.passes == 2
        assert cfg.workers == 9216

    def test_parallel_presets_default_40(self):
        assert iccad18_config().workers == 40
        assert dacpara_config().workers == 40


def test_scalar_and_generic_forks_are_gone():
    """One enumerate/evaluate path: the knobs, flag and capability
    attributes that used to select another one no longer exist."""
    import importlib
    import inspect
    import pkgutil

    import repro.galois
    from repro.aig import Aig
    from repro.cli import main
    from repro.cuts import CutManager

    for removed in ({"columnar_eval": False}, {"columnar_enum": False},
                    {"enum_fanout": False}, {"flight_recorder_size": 8}):
        with pytest.raises(TypeError):
            RewriteConfig(**removed)
    with pytest.raises(TypeError):
        CutManager(Aig(), columnar=False)
    with pytest.raises(SystemExit) as exit_info:
        main(["rewrite", "--scalar-eval", "x.aig"])
    assert exit_info.value.code == 2
    for info in pkgutil.iter_modules(repro.galois.__path__):
        module = importlib.import_module(f"repro.galois.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            assert not [a for a in dir(cls) if a.startswith("supports_native")]


def test_second_benchmark_is_gone(capsys):
    """`benchmarks/ladder` is the one benchmark: no `bench` subcommand,
    no hot-path / regression modules, no committed recordings."""
    import importlib.util
    import pathlib

    import repro.bench

    with pytest.raises(SystemExit) as exit_info:
        main(["bench"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    for name in repro.bench.__all__:
        assert getattr(repro.bench, name).__module__ in (
            "repro.bench.generators", "repro.bench.suite"), name
    for module in ("hotpath", "regress"):
        assert importlib.util.find_spec(f"repro.bench.{module}") is None
    root = pathlib.Path(__file__).resolve().parent.parent
    assert not list(root.glob("BENCH_*.json*"))


def test_off_path_passes_are_gone(capsys):
    """Beside the rewriter only the refactor extension remains: no
    `flow` / `shell` subcommand, no MIG, shell, resub, fraig, balance or
    LUT-mapping modules, and the refactor engines take no knob their
    callers never set."""
    import importlib.util

    import repro.opt
    from repro.opt import ParallelRefactor, RefactorEngine, refactor

    for argv in (["flow", "x.aig", "--script", "resyn2"], ["shell"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    for module in ("mig", "shell", "opt.resub", "opt.fraig", "opt.flow",
                   "opt.balance", "mapping"):
        assert importlib.util.find_spec(f"repro.{module}") is None, module
    for name in repro.opt.__all__:
        assert getattr(repro.opt, name) is getattr(refactor, name), name
    with pytest.raises(TypeError):
        RefactorEngine(zero_gain=True)
    with pytest.raises(TypeError):
        ParallelRefactor(executor_kind="simulated")


def test_wall_clock_domain_and_prometheus_are_gone():
    """The observer has one clock: no wall-clock telemetry modules, no
    flight-recorder knob and no Prometheus export on the CLI."""
    import importlib.util

    from repro.obs import TracingObserver

    for module in ("obs.wall", "obs.collect"):
        assert importlib.util.find_spec(f"repro.{module}") is None, module
    with pytest.raises(TypeError):
        TracingObserver(flight_size=8)
    with pytest.raises(SystemExit) as exit_info:
        main(["rewrite", "--metrics", "m.prom", "x.aig"])
    assert exit_info.value.code == 2
