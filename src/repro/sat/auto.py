"""The one equivalence decision: :func:`check_equivalence_auto` picks
the method and reports it in ``CecResult.method``.

* ≤ 14 PIs — exhaustive simulation (``"exhaustive"``);
* otherwise — the windowed SAT sweep of :mod:`repro.sat.sweep`
  (``"sat-sweep"``).

Both are exact: every "equivalent" is a proof, and every
counterexample separates the two circuits.  There is no size cut-off
and no sampled verdict.  :func:`repro.sat.check_equivalence` (one
monolithic miter) is the reference the tests compare against.
"""

from __future__ import annotations

from ..aig import Aig
from ..aig.simulate import exhaustive_signatures
from ..errors import SatError
from .equivalence import CecResult
from .sweep import cec_sweep

EXHAUSTIVE_PI_LIMIT = 14


def check_equivalence_auto(aig1: Aig, aig2: Aig) -> CecResult:
    """Prove or refute equivalence with the method the PI count picks."""
    if aig1.num_pis != aig2.num_pis or aig1.num_pos != aig2.num_pos:
        raise SatError("cannot compare circuits with different interfaces")
    if aig1.num_pis > EXHAUSTIVE_PI_LIMIT:
        return cec_sweep(aig1, aig2)
    for v1, v2 in zip(exhaustive_signatures(aig1), exhaustive_signatures(aig2)):
        diff = v1 ^ v2
        if diff:
            minterm = (diff & -diff).bit_length() - 1
            cex = [(minterm >> i) & 1 for i in range(aig1.num_pis)]
            return CecResult(False, cex, "exhaustive")
    return CecResult(True, None, "exhaustive")
