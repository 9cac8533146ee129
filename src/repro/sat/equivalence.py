"""Combinational equivalence checking (CEC).

Two-stage check, the standard industrial shape at small scale:

1. **Random simulation** — deterministic bit-parallel patterns; any
   output mismatch is a counterexample and the check fails immediately
   (fast path for inequivalence).
2. **SAT** — a miter over shared PIs solved with the built-in CDCL
   solver; UNSAT proves equivalence.

One monolithic miter, so it is the reference the tests compare the
production decision, :func:`repro.sat.check_equivalence_auto`, against;
the harness, ``repro cec`` and ``rewrite --verify`` call that one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..aig import Aig, random_patterns, simulate
from ..errors import SatError
from .cnf import build_miter


@dataclass
class CecResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    counterexample: Optional[List[int]]  # one 0/1 value per PI
    # 'exhaustive' | 'sat-sweep' (check_equivalence_auto);
    # 'simulation' | 'sat' (check_equivalence, the reference)
    method: str
    sat_conflicts: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


def check_equivalence(
    aig1: Aig,
    aig2: Aig,
    sim_width: int = 2048,
    seed: int = 0,
) -> CecResult:
    """Prove or refute combinational equivalence of two AIGs."""
    if aig1.num_pis != aig2.num_pis or aig1.num_pos != aig2.num_pos:
        raise SatError("cannot compare circuits with different interfaces")
    if aig1.num_pis > 0 and sim_width > 0:
        patterns = random_patterns(aig1.num_pis, sim_width, seed)
        outs1 = simulate(aig1, patterns, sim_width)
        outs2 = simulate(aig2, patterns, sim_width)
        for po, (v1, v2) in enumerate(zip(outs1, outs2)):
            diff = v1 ^ v2
            if diff:
                bit = (diff & -diff).bit_length() - 1
                cex = [(p >> bit) & 1 for p in patterns]
                return CecResult(
                    equivalent=False, counterexample=cex, method="simulation"
                )
    solver, pi_vars, miter = build_miter(aig1, aig2)
    if solver.solve(assumptions=[miter]):
        cex = [solver.model_value(v) for v in pi_vars]
        return CecResult(
            equivalent=False,
            counterexample=cex,
            method="sat",
            sat_conflicts=solver.stats["conflicts"],
        )
    return CecResult(
        equivalent=True,
        counterexample=None,
        method="sat",
        sat_conflicts=solver.stats["conflicts"],
    )
