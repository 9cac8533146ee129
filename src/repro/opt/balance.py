"""AND-tree balancing (the ABC ``balance`` command).

Rewriting is area-oriented; the classic companion pass for *delay* is
balancing: every maximal multi-input AND (a tree of AND2 nodes reached
through non-complemented edges) is re-decomposed as a
minimum-depth binary tree by Huffman-style greedy pairing of its
leaves, lowest arrival level first.  ABC scripts such as ``resyn2``
interleave balancing with rewriting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List

from ..aig import Aig
from ..aig.literals import lit_compl, lit_var


@dataclass
class BalanceResult:
    """Outcome of one balancing pass."""

    area_before: int
    area_after: int
    delay_before: int
    delay_after: int

    @property
    def delay_reduction(self) -> int:
        return self.delay_before - self.delay_after


def balance(aig: Aig) -> "tuple[Aig, BalanceResult]":
    """Return a depth-balanced copy of ``aig`` (the input is untouched)."""
    out = Aig()
    out.name = aig.name
    memo: Dict[int, int] = {0: 0}  # old var -> new literal (positive phase)
    for pi in aig.pis:
        memo[pi] = out.add_pi()

    def new_lit(old_lit: int) -> int:
        base = memo[lit_var(old_lit)]
        return base ^ (old_lit & 1)

    for var in aig.topo_ands():
        leaves = _super_gate_leaves(aig, var)
        # Translate leaves into the new graph and pair greedily by level.
        heap: List[tuple] = []
        for index, leaf in enumerate(leaves):
            lit = new_lit(leaf)
            heapq.heappush(heap, (out.level(lit_var(lit)), index, lit))
        counter = len(leaves)
        while len(heap) > 1:
            _, _, a = heapq.heappop(heap)
            _, _, b = heapq.heappop(heap)
            lit = out.and_(a, b)
            counter += 1
            heapq.heappush(heap, (out.level(lit_var(lit)), counter, lit))
        memo[var] = heap[0][2]

    for lit in aig.pos:
        out.add_po(new_lit(lit))
    result = BalanceResult(
        area_before=aig.num_ands,
        area_after=out.num_ands,
        delay_before=aig.max_level(),
        delay_after=out.max_level(),
    )
    return out, result


def _super_gate_leaves(aig: Aig, root: int) -> List[int]:
    """Leaf literals of the maximal AND tree rooted at ``root``.

    Descends through positive-phase fanins that are AND nodes with a
    single reference (shared nodes stay as leaves so logic is not
    duplicated).  Returns literals in the *old* graph.
    """
    leaves: List[int] = []
    stack = [2 * root]
    first = True
    while stack:
        lit = stack.pop()
        var = lit_var(lit)
        expandable = (
            not lit_compl(lit)
            and aig.is_and(var)
            and (first or aig.nref(var) <= 1)
        )
        first = False
        if expandable:
            stack.append(aig.fanin0(var))
            stack.append(aig.fanin1(var))
        else:
            leaves.append(lit)
    leaves.sort()
    return leaves
