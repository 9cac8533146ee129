"""Windowed SAT sweeping: the exact prover behind
:func:`repro.sat.check_equivalence_auto` above 14 PIs.

1. **Miter.**  The second circuit is strashed into a copy of the first
   over shared PIs and its POs are appended, so every structure the
   two circuits share is one node already.
2. **Screen and classes.**  One bit-parallel simulation of
   :data:`SIM_WIDTH` random patterns runs over the whole miter.  A PO
   pair that differs is a counterexample.  Otherwise the signatures
   class every node, the constant and the PIs included, up to
   complement.  Simulation only proposes pairs; it never decides
   "equivalent".
3. **Bottom-up pass.**  In topological order each node is proved equal
   to its class representative by SAT on a *window* (below).  A proved
   pair is merged with :meth:`Aig.replace`, so its fanouts re-strash
   and the cones above the pair become one.  A pair refuted on its full
   cone yields a counterexample that refines the classes.
4. **POs.**  A PO pair on the same literal is proved; any other pair
   gets one SAT call on its full cone.

**Windows.**  Both roots are expanded in decreasing level order, and a
node reached from both sides (the shared frontier, after the merges
below it) can be left as a free variable.  Any set of free variables
that cuts the roots from the PIs is sound for UNSAT: a proof over free
leaves covers every value the leaves can take.  A SAT answer on a
frozen or truncated window proves nothing and widens it through
:data:`WINDOWS`; only SAT on the full cone is a counterexample.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..aig import Aig
from ..aig.graph import KIND_AND, KIND_DEAD
from ..aig.simulate import random_patterns, simulate_nodes, simulate_pattern
from ..errors import SatError
from .cnf import encode_nodes, false_var, solver_lit
from .equivalence import CecResult
from .solver import Solver

SIM_WIDTH = 4096
# (node budget, frozen) per attempt: stop at the shared frontier, then
# expand through it, then the full cone (no budget).
WINDOWS: Tuple[Tuple[Optional[int], bool], ...] = (
    (64, True), (32, False), (256, False), (None, False),
)


def cec_sweep(aig1: Aig, aig2: Aig) -> CecResult:
    """Prove or refute equivalence by windowed SAT sweeping."""
    if aig1.num_pis != aig2.num_pis or aig1.num_pos != aig2.num_pos:
        raise SatError("cannot compare circuits with different interfaces")
    miter = _build_miter(aig1, aig2)
    cex = _Sweep(miter).run()
    if cex is None:
        return CecResult(True, None, "sat-sweep")
    if simulate_pattern(aig1, cex) == simulate_pattern(aig2, cex):
        raise SatError("sweep counterexample does not separate the circuits")
    return CecResult(False, cex, "sat-sweep")


def _build_miter(aig1: Aig, aig2: Aig) -> Aig:
    """``aig1``'s POs, then ``aig2``'s, over shared PIs in one graph."""
    miter = aig1.copy()
    lit = {0: 0, **{pi: miter_pi << 1 for pi, miter_pi in zip(aig2.pis, miter.pis)}}
    fanin0, fanin1 = aig2._fanin0, aig2._fanin1
    for var in aig2.topo_ands():
        f0, f1 = fanin0[var], fanin1[var]
        lit[var] = miter.and_(lit[f0 >> 1] ^ (f0 & 1), lit[f1 >> 1] ^ (f1 & 1))
    for po in aig2.pos:
        miter.add_po(lit[po >> 1] ^ (po & 1))
    miter.cleanup_dangling()
    return miter


class _Sweep:
    """One sweep over a miter; :meth:`run` returns a counterexample
    (one 0/1 value per PI) or ``None`` when every PO pair is proved."""

    def __init__(self, miter: Aig) -> None:
        self.aig = miter
        self.pi_index = {pi: i for i, pi in enumerate(miter.pis)}
        self.patterns = random_patterns(miter.num_pis, SIM_WIDTH, 0)
        self.sigs = simulate_nodes(miter, self.patterns, SIM_WIDTH)
        self.width = SIM_WIDTH
        self.classes: Dict[int, int] = {}  # normalized signature -> rep var

    def run(self) -> Optional[List[int]]:
        aig = self.aig
        half = aig.num_pos // 2
        cex = self._screen(half)
        if cex is not None:
            return cex
        for var in [0, *aig.pis, *aig.topo_ands()]:
            self._sweep_node(var)
        for po in range(half):
            a, b = aig.po_lit(po), aig.po_lit(half + po)
            if a != b:
                cex = self._prove(a >> 1, b >> 1, (a ^ b) & 1, windows=WINDOWS[-1:])
                if cex is not None:
                    return cex
        return None

    def _screen(self, half: int) -> Optional[List[int]]:
        """A counterexample from the random patterns, if one exists."""
        mask = (1 << SIM_WIDTH) - 1
        for po in range(half):
            a, b = self.aig.po_lit(po), self.aig.po_lit(half + po)
            diff = self.sigs[a >> 1] ^ self.sigs[b >> 1]
            if (a ^ b) & 1:
                diff ^= mask
            if diff:
                bit = (diff & -diff).bit_length() - 1
                return [(p >> bit) & 1 for p in self.patterns]
        return None

    def _norm(self, var: int) -> int:
        sig = self.sigs[var]
        return sig ^ ((1 << self.width) - 1) if sig & 1 else sig

    def _sweep_node(self, var: int) -> None:
        """Merge ``var`` into its class representative, or make it one."""
        kind = self.aig._kind
        while kind[var] != KIND_DEAD:
            norm = self._norm(var)
            rep = self.classes.get(norm)
            if rep is None or kind[rep] == KIND_DEAD:
                self.classes[norm] = var
                return
            phase = (self.sigs[var] ^ self.sigs[rep]) & 1
            cex = self._prove(rep, var, phase)
            if cex is None:
                self._merge(rep, var, phase, norm)
                return
            self._refine(cex)

    def _merge(self, rep: int, var: int, phase: int, norm: int) -> None:
        """Replace the higher of two proved-equal nodes by the other; a
        node is never in the fanout of one at or below its level."""
        aig = self.aig
        if aig.level(rep) > aig.level(var):
            rep, var = var, rep
            self.classes[norm] = rep
        aig.replace(var, (rep << 1) | phase)

    def _refine(self, cex: List[int]) -> None:
        """Add one pattern to every signature and re-key the classes."""
        bits = simulate_nodes(self.aig, cex, 1)
        self.sigs = [(s << 1) | b for s, b in zip(self.sigs, bits)]
        self.width += 1
        kind = self.aig._kind
        reps = [r for r in self.classes.values() if kind[r] != KIND_DEAD]
        self.classes = {self._norm(r): r for r in reps}

    def _prove(
        self, a: int, b: int, phase: int, windows=WINDOWS
    ) -> Optional[List[int]]:
        """``None`` when ``a == b ^ phase`` is proved on some window, else
        the counterexample found on the full cone."""
        for limit, frozen in windows:
            solver = Solver()
            nodes, leaves, full = _window(self.aig, a, b, limit, frozen)
            node_var = {}
            for leaf in leaves:
                node_var[leaf] = false_var(solver) if leaf == 0 else solver.new_var()
            encode_nodes(self.aig, solver, nodes, node_var)
            la = solver_lit(a << 1, node_var)
            lb = solver_lit((b << 1) | phase, node_var)
            solver.add_clause([la, lb])
            solver.add_clause([-la, -lb])
            if not solver.solve():
                return None
            if full:
                cex = [0] * len(self.pi_index)
                for leaf in leaves:
                    if leaf in self.pi_index:
                        cex[self.pi_index[leaf]] = solver.model_value(node_var[leaf])
                return cex
        raise SatError("the last sweep window must be the full cone")


def _window(
    aig: Aig, a: int, b: int, limit: Optional[int], frozen: bool
) -> Tuple[List[int], List[int], bool]:
    """``(nodes fanins first, leaves, full)`` of the window on roots
    ``a`` and ``b``: AND nodes are expanded highest level first, so a
    node's side marks are final when it is popped.  A node becomes a
    leaf when it is a PI or the constant, when ``frozen`` and both roots
    reach it, or once ``limit`` nodes are expanded.  ``full``: only PIs
    and the constant are leaves, so a model is a counterexample."""
    aig.settle_levels()
    kind, fanin0, fanin1, level = aig._kind, aig._fanin0, aig._fanin1, aig._level
    side = {a: 1, b: 2}
    heap = sorted([(-level[a], a), (-level[b], b)])
    nodes: List[int] = []
    leaves: List[int] = []
    full = True
    while heap:
        _, var = heappop(heap)
        if kind[var] != KIND_AND:
            leaves.append(var)
            continue
        if (frozen and side[var] == 3) or len(nodes) == limit:
            leaves.append(var)
            full = False
            continue
        nodes.append(var)
        mark = side[var]
        for lit in (fanin0[var], fanin1[var]):
            child = lit >> 1
            if child in side:
                side[child] |= mark
            else:
                side[child] = mark
                heappush(heap, (-level[child], child))
    nodes.reverse()
    return nodes, leaves, full
