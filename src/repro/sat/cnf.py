"""Tseitin encoding of AIGs into CNF and miter construction."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..aig import Aig
from ..errors import SatError
from .solver import Solver


def encode_nodes(
    aig: Aig, solver: Solver, nodes: Iterable[int], node_var: Dict[int, int]
) -> Dict[int, int]:
    """Tseitin-encode the AND nodes ``nodes`` (fanins first) onto ``solver``.

    ``node_var`` maps every var the nodes read but do not define (PIs,
    the constant, the leaves of a window) to a solver variable; it gains
    one fresh variable per encoded node and is returned.  This is the
    one encoder: whole circuits and sweep windows both go through it.
    """
    fanin0, fanin1 = aig._fanin0, aig._fanin1
    new_var, add = solver.new_var, solver.add_clause
    for var in nodes:
        y = new_var()
        a = solver_lit(fanin0[var], node_var)
        b = solver_lit(fanin1[var], node_var)
        add([-y, a])
        add([-y, b])
        add([y, -a, -b])
        node_var[var] = y
    return node_var


def solver_lit(aig_lit: int, node_var: Dict[int, int]) -> int:
    """The solver literal of an AIG literal under ``node_var``."""
    sv = node_var[aig_lit >> 1]
    return -sv if aig_lit & 1 else sv


def false_var(solver: Solver) -> int:
    """A fresh solver variable fixed to 0: the AIG constant."""
    var = solver.new_var()
    solver.add_clause([-var])
    return var


def encode_aig(
    aig: Aig, solver: Solver, pi_vars: List[int]
) -> List[int]:
    """Tseitin-encode the whole AIG onto ``solver``.

    ``pi_vars`` supplies the solver variable for each PI (so two
    circuits can share inputs in a miter).  Returns one solver literal
    per PO.
    """
    if len(pi_vars) != aig.num_pis:
        raise SatError(
            f"expected {aig.num_pis} PI vars, got {len(pi_vars)}"
        )
    node_var = {0: false_var(solver), **dict(zip(aig.pis, pi_vars))}
    encode_nodes(aig, solver, aig.topo_ands(), node_var)
    return [solver_lit(lit, node_var) for lit in aig.pos]


def build_miter(aig1: Aig, aig2: Aig) -> Tuple[Solver, List[int], int]:
    """CNF miter of two AIGs over shared PIs.

    Returns ``(solver, pi_vars, miter_var)`` where ``miter_var`` is a
    solver variable that is true iff some PO pair differs.  The two
    circuits are equivalent iff the formula with ``miter_var`` asserted
    is UNSAT.
    """
    if aig1.num_pis != aig2.num_pis or aig1.num_pos != aig2.num_pos:
        raise SatError(
            "miter interface mismatch: "
            f"{aig1.num_pis}/{aig1.num_pos} vs {aig2.num_pis}/{aig2.num_pos}"
        )
    solver = Solver()
    pi_vars = [solver.new_var() for _ in range(aig1.num_pis)]
    outs1 = encode_aig(aig1, solver, pi_vars)
    outs2 = encode_aig(aig2, solver, pi_vars)
    xor_vars: List[int] = []
    for o1, o2 in zip(outs1, outs2):
        x = solver.new_var()
        # x <-> (o1 xor o2)
        solver.add_clause([-x, o1, o2])
        solver.add_clause([-x, -o1, -o2])
        solver.add_clause([x, -o1, o2])
        solver.add_clause([x, o1, -o2])
        xor_vars.append(x)
    miter = solver.new_var()
    # miter -> (x1 v x2 v ...)
    solver.add_clause([-miter] + xor_vars)
    for x in xor_vars:
        solver.add_clause([miter, -x])
    return solver, pi_vars, miter
