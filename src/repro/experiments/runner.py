"""Experiment runner: engines by name and per-benchmark result rows,
each equivalence-checked by :func:`repro.sat.check_equivalence_auto`."""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..aig import Aig
from ..config import (
    abc_rewrite_config,
    dacpara_config,
    dacpara_p1_config,
    dacpara_p2_config,
    gpu_config,
    iccad18_config,
)
from ..rewrite.result import RewriteResult

DEFAULT_WORKERS = 40
GPU_WORKERS = 9216


def _engine(module: str, cls: str, make_config: Callable[[int], object],
            **options) -> Callable[..., object]:
    """A factory that imports its engine class when called: a run loads
    its own engine, never the others."""

    def make(workers, observer=None):
        engine = getattr(importlib.import_module(module, __package__), cls)
        return engine(make_config(workers), observer=observer, **options)

    return make


_DACPARA = ("..core.dacpara", "DACParaRewriter")
_GPU = ("..rewrite.static_gpu", "StaticRewriter")

ENGINE_FACTORIES: Dict[str, Callable[..., object]] = {
    "abc": _engine("..rewrite.serial", "SerialRewriter",
                   lambda workers: abc_rewrite_config()),
    "iccad18": _engine("..rewrite.lockfused", "LockFusedRewriter",
                       iccad18_config),
    "dacpara": _engine(*_DACPARA, dacpara_config),
    "dacpara-p1": _engine(*_DACPARA, dacpara_p1_config),
    "dacpara-p2": _engine(*_DACPARA, dacpara_p2_config),
    "dacpara-novalidate": _engine(*_DACPARA, dacpara_config, validate=False),
    "gpu-dac22": _engine(*_GPU, gpu_config, variant="dac22"),
    "gpu-tcad23": _engine(*_GPU, gpu_config, variant="tcad23"),
    # DACPara under the GPU works' exact budget (222 classes, 8 cuts,
    # 5 structures, 2 passes): isolates the paper's dynamic-vs-static
    # quality claim from the class-set confound.
    "dacpara-222": _engine(*_DACPARA,
                           lambda workers: gpu_config(min(workers, 40))),
}


def make_engine(name: str, workers: Optional[int] = None, observer=None):
    """Instantiate an engine by table name; ``observer`` (an
    :class:`repro.obs.Observer`) is passed to the engine and its
    executor so one flag can trace any engine in the matrix."""
    if name not in ENGINE_FACTORIES:
        raise KeyError(f"unknown engine {name!r}; have {sorted(ENGINE_FACTORIES)}")
    if workers is None:
        workers = GPU_WORKERS if name.startswith("gpu") else DEFAULT_WORKERS
    return ENGINE_FACTORIES[name](workers, observer=observer)


@dataclass
class ExperimentRow:
    """One engine applied to one benchmark circuit."""

    benchmark: str
    engine: str
    result: RewriteResult
    cec_ok: bool
    cec_method: str
    wall_seconds: float


def run_experiment(
    engine_name: str,
    circuit_factory: Callable[[], Aig],
    workers: Optional[int] = None,
    check: bool = True,
    observer=None,
) -> ExperimentRow:
    """Run one engine on a fresh copy of one benchmark, with CEC;
    raises AssertionError when the output is not equivalent."""
    original = circuit_factory()
    working = original.copy()
    working.name = original.name
    engine = make_engine(engine_name, workers, observer=observer)
    start = time.perf_counter()
    result = engine.run(working)
    wall = time.perf_counter() - start
    method = "skipped"
    if check:
        from ..sat import check_equivalence_auto

        cec = check_equivalence_auto(original, working)
        if not cec.equivalent:
            raise AssertionError("rewritten circuit is NOT equivalent to the original")
        method = cec.method
    return ExperimentRow(
        benchmark=original.name,
        engine=engine_name,
        result=result,
        cec_ok=True,
        cec_method=method,
        wall_seconds=wall,
    )


def run_matrix(
    engine_names: List[str],
    circuit_factories: Dict[str, Callable[[], Aig]],
    workers: Optional[int] = None,
    check: bool = True,
) -> List[ExperimentRow]:
    """Cartesian product of engines × benchmarks."""
    rows: List[ExperimentRow] = []
    for bench_name, factory in circuit_factories.items():
        for engine_name in engine_names:
            row = run_experiment(engine_name, factory, workers, check)
            row.benchmark = bench_name
            rows.append(row)
    return rows
