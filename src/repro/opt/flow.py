"""Optimization flows — compositions of passes, ABC-script style.

``resyn2``-like flows interleave balancing with rewriting and
refactoring; this is how logic rewriting is actually deployed ("logic
rewriting techniques are often applied many times for optimization due
to its local optimality" — the paper's introduction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..aig import Aig
from ..config import RewriteConfig, dacpara_config
from ..core import DACParaRewriter
from ..rewrite import SerialRewriter
from .balance import balance
from .fraig import fraig
from .refactor import ParallelRefactor, RefactorEngine


@dataclass
class FlowStep:
    """One executed pass with its area/delay trace."""

    name: str
    area: int
    delay: int


@dataclass
class FlowResult:
    """Trace of an optimization flow."""

    steps: List[FlowStep] = field(default_factory=list)

    @property
    def final(self) -> FlowStep:
        return self.steps[-1]

    def summary(self) -> str:
        parts = [f"{s.name}: {s.area}n/{s.delay}l" for s in self.steps]
        return " -> ".join(parts)


def run_flow(aig: Aig, script: str = "resyn2", workers: int = 8,
             parallel: bool = True) -> Tuple[Aig, FlowResult]:
    """Run a named flow; returns (optimized AIG, trace).

    Scripts (mirroring the ABC conventions):

    * ``"rw"``       — one rewriting pass
    * ``"resyn"``    — b; rw; rw; b; rw; b
    * ``"resyn2"``   — b; rw; rf; b; rw; rw(z); b; rf(z); rw(z); b
    * ``"compress"`` — b; rw; b; rf; b
    """
    if script not in FLOW_SCRIPTS:
        raise KeyError(f"unknown flow {script!r}; have {sorted(FLOW_SCRIPTS)}")
    trace = FlowResult()
    current = aig
    trace.steps.append(FlowStep("input", current.num_ands, current.max_level()))
    for op in FLOW_SCRIPTS[script]:
        current = _PASSES[op](current, workers, parallel)
        trace.steps.append(FlowStep(op, current.num_ands, current.max_level()))
    return current, trace


def _rewrite(aig: Aig, workers: int, parallel: bool, zero_gain: bool = False) -> Aig:
    config = dacpara_config(workers=workers)
    if zero_gain:
        from dataclasses import replace

        config = replace(config, zero_gain=True)
    if parallel:
        DACParaRewriter(config).run(aig)
    else:
        SerialRewriter(config).run(aig)
    return aig


def _refactor(aig: Aig, workers: int, parallel: bool, zero_gain: bool = False) -> Aig:
    if parallel:
        ParallelRefactor(workers=workers, zero_gain=zero_gain).run(aig)
    else:
        RefactorEngine(zero_gain=zero_gain).run(aig)
    return aig


def _balance(aig: Aig, workers: int, parallel: bool) -> Aig:
    new_aig, _ = balance(aig)
    return new_aig


def _fraig(aig: Aig, workers: int, parallel: bool) -> Aig:
    fraig(aig)
    return aig


def _resub(aig: Aig, workers: int, parallel: bool) -> Aig:
    from .resub import ResubEngine

    ResubEngine().run(aig)
    return aig


_PASSES: dict = {
    "b": _balance,
    "rw": lambda a, w, p: _rewrite(a, w, p),
    "rwz": lambda a, w, p: _rewrite(a, w, p, zero_gain=True),
    "rf": lambda a, w, p: _refactor(a, w, p),
    "rfz": lambda a, w, p: _refactor(a, w, p, zero_gain=True),
    "rs": _resub,
    "fraig": _fraig,
}

FLOW_SCRIPTS = {
    "rw": ["rw"],
    "resyn": ["b", "rw", "rw", "b", "rw", "b"],
    "resyn2": ["b", "rw", "rf", "b", "rw", "rwz", "b", "rfz", "rwz", "b"],
    "resyn2rs": ["b", "rs", "rw", "rf", "rs", "b", "rs", "rw", "rwz",
                 "b", "rfz", "rs", "rwz", "b"],
    "compress": ["b", "rw", "b", "rf", "b"],
    "fraig": ["fraig"],
}
