"""Windowed resubstitution (the ABC ``resub`` command).

For each node ``n``: take a reconvergence-driven cut, collect *divisor*
nodes whose functions are expressible over the same cut leaves, compute
everyone's local truth table by cone simulation, and try to re-express
``n`` as

* an existing divisor (0-resub — saves the whole MFFC), or
* a single fresh gate over two divisors (1-resub — saves ``|MFFC|-1``),
  trying AND/OR with all input phases and XOR.

Replacements go through ``Aig.replace``; candidates must strictly
shrink the graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..aig import Aig, mffc
from ..aig.literals import lit_not, lit_var
from ..npn.truth import full_mask
from ..rewrite.result import RewriteResult
from .refactor import cone_truth_table, reconvergence_cut

DEFAULT_MAX_DIVISORS = 24


class ResubEngine:
    """Serial windowed resubstitution."""

    name = "resub-serial"

    def __init__(self, max_leaves: int = 8,
                 max_divisors: int = DEFAULT_MAX_DIVISORS,
                 use_one_resub: bool = True,
                 passes: int = 1):
        self.max_leaves = max_leaves
        self.max_divisors = max_divisors
        self.use_one_resub = use_one_resub
        self.passes = passes

    def run(self, aig: Aig) -> RewriteResult:
        """Resubstitute ``aig`` in place; returns the result record."""
        result = RewriteResult.begin(self.name, 1, aig)
        for _ in range(self.passes):
            result.passes += 1
            changed = False
            for root in aig.topo_ands():
                if aig.is_dead(root):
                    continue
                result.attempted += 1
                if self._try_node(aig, root):
                    result.replacements += 1
                    changed = True
            if not changed:
                break
        return result.finish(aig)

    # ------------------------------------------------------------------

    def _try_node(self, aig: Aig, root: int) -> bool:
        leaves = reconvergence_cut(aig, root, self.max_leaves)
        if root in leaves or len(leaves) < 2:
            return False
        doomed = mffc(aig, root, leaves)
        max_gain = len(doomed)
        if max_gain < 1:
            return False
        divisors = self._collect_divisors(aig, root, leaves, doomed)
        if not divisors:
            return False
        k = len(leaves)
        mask = full_mask(k)
        target = cone_truth_table(aig, root, leaves)
        div_tts = [(d, cone_truth_table(aig, d, leaves)) for d in divisors]

        # 0-resub: an existing node already computes the function.
        for d, tt in div_tts:
            if tt == target:
                return self._apply(aig, root, 2 * d)
            if tt == (target ^ mask):
                return self._apply(aig, root, 2 * d + 1)

        if not self.use_one_resub or max_gain < 2:
            return False
        # 1-resub: one fresh gate over two divisors.
        n = len(div_tts)
        for i in range(n):
            di, ti = div_tts[i]
            for j in range(i + 1, n):
                dj, tj = div_tts[j]
                combo = self._match_gate(ti, tj, target, mask)
                if combo is None:
                    continue
                pi, pj, out_c, is_xor = combo
                a = (2 * di) ^ pi
                b = (2 * dj) ^ pj
                before = aig.num_ands
                if is_xor:
                    lit = aig.xor_(a, b)
                else:
                    lit = aig.and_(a, b)
                created = aig.num_ands - before
                if created >= max_gain or lit_var(lit) == root:
                    # Not profitable (or degenerate); recycle any build.
                    if created and aig.nref(lit_var(lit)) == 0:
                        aig.delete_if_dangling(lit_var(lit))
                    continue
                return self._apply(aig, root, lit ^ out_c)
        return False

    @staticmethod
    def _match_gate(ti: int, tj: int, target: int, mask: int
                    ) -> Optional[Tuple[int, int, int, bool]]:
        """Try to express target as a 2-input gate of ti, tj.

        Returns (phase_i, phase_j, out_phase, is_xor) or None.
        """
        for pi in (0, 1):
            ei = ti ^ (mask if pi else 0)
            for pj in (0, 1):
                ej = tj ^ (mask if pj else 0)
                if (ei & ej) == target:
                    return (pi, pj, 0, False)
                if ((ei & ej) ^ mask) == target:
                    return (pi, pj, 1, False)
        if (ti ^ tj) == target:
            return (0, 0, 0, True)
        if (ti ^ tj ^ mask) == target:
            return (0, 0, 1, True)
        return None

    def _collect_divisors(self, aig: Aig, root: int, leaves: List[int],
                          doomed: Set[int]) -> List[int]:
        """Nodes expressible over the cut leaves, excluding the root's
        own doomed cone, bounded by count and level."""
        leaf_set = set(leaves)
        qualifies: Set[int] = set(leaf_set)
        divisors: List[int] = [l for l in leaves if aig.is_and(l)]
        root_level = aig.level(root)
        frontier = list(leaf_set)
        seen: Set[int] = set(leaf_set)
        while frontier and len(divisors) < self.max_divisors:
            next_frontier: List[int] = []
            for node in frontier:
                for fo in aig.fanouts(node):
                    if fo in seen or fo in doomed or fo == root:
                        continue
                    if aig.level(fo) > root_level:
                        continue
                    f0 = lit_var(aig.fanin0(fo))
                    f1 = lit_var(aig.fanin1(fo))
                    if f0 in qualifies and f1 in qualifies:
                        seen.add(fo)
                        qualifies.add(fo)
                        divisors.append(fo)
                        next_frontier.append(fo)
                        if len(divisors) >= self.max_divisors:
                            break
                if len(divisors) >= self.max_divisors:
                    break
            frontier = next_frontier
        return divisors

    @staticmethod
    def _apply(aig: Aig, root: int, new_lit: int) -> bool:
        from ..aig.traversal import is_in_tfi

        nv = lit_var(new_lit)
        if nv == root or is_in_tfi(aig, root, nv):
            return False
        aig.replace(root, new_lit)
        return True
