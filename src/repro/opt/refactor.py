"""Large-cut refactoring (the ABC ``refactor`` command), serial and
DACPara-parallel.

Where rewriting replaces 4-input cut cones with precomputed structures,
refactoring takes one *large* reconvergence-driven cut per node (up to
``max_leaves`` inputs), computes the cone function by bit-parallel
simulation, re-synthesizes it with ISOP + algebraic factoring (both
output phases, cheaper cover wins), and keeps the result only when it
shrinks the graph.

The parallel variant reuses DACPara's divide-and-conquer skeleton: the
expensive part (cut finding, simulation, ISOP, factoring) runs in a
lock-free evaluation stage; the short replacement stage re-checks the
gain exactly by building under locks and undoing unprofitable builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set, Tuple

from ..aig import Aig, mffc
from ..aig.literals import lit_compl, lit_var
from ..galois import Phase, SimulatedExecutor
from ..library.isop import Cube, isop
from ..npn.truth import full_mask
from ..rewrite.result import RewriteResult

DEFAULT_MAX_LEAVES = 10


def reconvergence_cut(aig: Aig, root: int, max_leaves: int = DEFAULT_MAX_LEAVES) -> List[int]:
    """A reconvergence-driven cut of ``root`` (ABC's Abc_NodeFindCut):
    greedily expand the leaf whose expansion adds the fewest new
    leaves, preferring expansions that *shrink* the cut (reconvergence).
    """
    leaves: Set[int] = {root}
    while True:
        best_leaf = None
        best_cost = None
        for leaf in leaves:
            if not aig.is_and(leaf):
                continue
            fanin_vars = {lit_var(aig.fanin0(leaf)), lit_var(aig.fanin1(leaf))}
            cost = len(fanin_vars - leaves) - 1
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_leaf = leaf
        if best_leaf is None:
            break
        if len(leaves) + best_cost > max_leaves and best_cost > 0:
            break
        leaves.discard(best_leaf)
        leaves.add(lit_var(aig.fanin0(best_leaf)))
        leaves.add(lit_var(aig.fanin1(best_leaf)))
    return sorted(leaves)


def cone_truth_table(aig: Aig, root: int, leaves: List[int]) -> int:
    """Truth table of ``root`` over ``leaves`` by simulating the cone
    with elementary-variable patterns (leaves must form a cut)."""
    k = len(leaves)
    width = 1 << k
    mask = (1 << width) - 1
    values: Dict[int, int] = {0: 0}
    for i, leaf in enumerate(leaves):
        block = (1 << (1 << i)) - 1
        period = 1 << (i + 1)
        tt = 0
        for start in range(1 << i, width, period):
            tt |= block << start
        values[leaf] = tt
    # Iterative post-order over the cover.
    stack = [root]
    while stack:
        v = stack[-1]
        if v in values:
            stack.pop()
            continue
        f0v = lit_var(aig.fanin0(v))
        f1v = lit_var(aig.fanin1(v))
        pending = [w for w in (f0v, f1v) if w not in values]
        if pending:
            stack.extend(pending)
            continue
        a = values[f0v] ^ (mask if lit_compl(aig.fanin0(v)) else 0)
        b = values[f1v] ^ (mask if lit_compl(aig.fanin1(v)) else 0)
        values[v] = a & b
        stack.pop()
    return values[root]


class AigCubeBuilder:
    """Adapter exposing the structure-builder interface over a live AIG
    and concrete leaf literals, tracking created nodes for undo."""

    def __init__(self, aig: Aig, leaf_lits: List[int], created: List[int],
                 doomed: Optional[Set[int]] = None):
        self._aig = aig
        self._leaf_lits = leaf_lits
        self._created = created
        self._doomed = doomed if doomed is not None else set()
        self.revived = 0  # strash hits on nodes slated for deletion

    @property
    def const0(self) -> int:
        return 0

    @property
    def const1(self) -> int:
        return 1

    def input(self, i: int, compl: bool = False) -> int:
        return self._leaf_lits[i] ^ int(compl)

    def and_(self, a: int, b: int) -> int:
        before = self._aig.num_ands
        lit = self._aig.and_(a, b)
        var = lit_var(lit)
        if self._aig.num_ands > before:
            self._created.append(var)
        elif var in self._doomed:
            # Reusing a node the replacement was counting on deleting:
            # it will survive, so it cancels one unit of savings.
            self._doomed.discard(var)
            self.revived += 1
        return lit

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1


def build_factored(aig: Aig, cubes: List[Cube], leaf_lits: List[int],
                   out_compl: bool, created: List[int],
                   doomed: Optional[Set[int]] = None) -> Tuple[int, int]:
    """Materialize an algebraically factored cover over concrete leaf
    literals; created node vars are recorded for undo.  Returns
    ``(output literal, revived count)`` where revived counts strash
    hits on nodes in ``doomed`` (they survive the replacement)."""
    from ..library.factor import factor_with_builder

    builder = AigCubeBuilder(aig, leaf_lits, created, doomed)
    out = factor_with_builder(builder, cubes, num_vars=len(leaf_lits))
    return out ^ int(out_compl), builder.revived


@dataclass
class RefactorCandidate:
    """A stored refactoring opportunity (prepInfo entry)."""

    root: int
    root_life: int
    leaves: Tuple[int, ...]
    leaf_lives: Tuple[int, ...]
    cubes: Tuple[Cube, ...]
    out_compl: bool
    estimated_gain: int


def _evaluate_node(aig: Aig, root: int, max_leaves: int
                   ) -> Optional[RefactorCandidate]:
    """The lock-free part: cut, simulate, ISOP both phases, estimate."""
    leaves = reconvergence_cut(aig, root, max_leaves)
    if len(leaves) < 3 or root in leaves:
        return None
    tt = cone_truth_table(aig, root, leaves)
    k = len(leaves)
    mask = full_mask(k)
    pos_cover = isop(tt, k)
    neg_cover = isop(tt ^ mask, k)
    if _cover_cost(neg_cover) < _cover_cost(pos_cover):
        cubes, out_compl = neg_cover, True
    else:
        cubes, out_compl = pos_cover, False
    saved = len(mffc(aig, root, leaves))
    estimate = saved - _cover_cost(cubes)
    if estimate < 0:
        return None
    return RefactorCandidate(
        root=root,
        root_life=aig.life_stamp(root),
        leaves=tuple(leaves),
        leaf_lives=tuple(aig.life_stamp(l) for l in leaves),
        cubes=tuple(cubes),
        out_compl=out_compl,
        estimated_gain=estimate,
    )


def _cover_cost(cubes: List[Cube]) -> int:
    """Crude AND-node upper bound of a cover (literals + or-tree)."""
    literals = sum(bin(p).count("1") + bin(n).count("1") for p, n in cubes)
    return max(literals - len(cubes), 0) + max(len(cubes) - 1, 0)


def _try_apply(aig: Aig, cand: RefactorCandidate) -> int:
    """Build the factored cover; keep it only on real positive gain.
    Returns nodes saved (0 when undone).  Must run atomically."""
    if aig.is_dead(cand.root) or aig.life_stamp(cand.root) != cand.root_life:
        return 0
    for leaf, life in zip(cand.leaves, cand.leaf_lives):
        if aig.is_dead(leaf) or aig.life_stamp(leaf) != life:
            return 0
    doomed = mffc(aig, cand.root, cand.leaves)
    saved = len(doomed)
    created: List[int] = []
    leaf_lits = [2 * l for l in cand.leaves]
    out, revived = build_factored(
        aig, list(cand.cubes), leaf_lits, cand.out_compl, created, doomed
    )
    added = len(created)
    gain = saved - added - revived
    out_var = lit_var(out)
    if gain <= 0 or out_var == cand.root or _creates_cycle(aig, cand.root, out_var):
        for var in reversed(created):
            aig.delete_if_dangling(var)
        return 0
    before = aig.num_ands
    aig.replace(cand.root, out)
    for var in reversed(created):
        if not aig.is_dead(var):
            aig.delete_if_dangling(var)
    return before - aig.num_ands


def _creates_cycle(aig: Aig, root: int, out_var: int) -> bool:
    from ..aig.traversal import is_in_tfi

    return is_in_tfi(aig, root, out_var)


class RefactorEngine:
    """Serial refactoring (the quality reference)."""

    name = "refactor-serial"

    def __init__(self, max_leaves: int = DEFAULT_MAX_LEAVES):
        self.max_leaves = max_leaves

    def run(self, aig: Aig) -> RewriteResult:
        result = RewriteResult.begin(self.name, 1, aig)
        result.passes = 1
        for root in aig.topo_ands():
            if aig.is_dead(root):
                continue
            result.attempted += 1
            cand = _evaluate_node(aig, root, self.max_leaves)
            if cand is not None and _try_apply(aig, cand) > 0:
                result.replacements += 1
        return result.finish(aig)


class ParallelRefactor:
    """DACPara-style three-stage parallel refactoring."""

    name = "refactor-dacpara"

    def __init__(self, workers: int = 40, max_leaves: int = DEFAULT_MAX_LEAVES):
        self.workers = workers
        self.max_leaves = max_leaves

    def run(self, aig: Aig) -> RewriteResult:
        from ..core.partition import node_dividing

        executor = SimulatedExecutor(self.workers)
        result = RewriteResult.begin(self.name, self.workers, aig)
        result.passes = 1
        prep: Dict[int, RefactorCandidate] = {}

        def eval_op(root: int) -> Generator[Phase, None, None]:
            if aig.is_dead(root):
                return
            result.attempted += 1
            cand = _evaluate_node(aig, root, self.max_leaves)
            cost = 1 + (len(cand.leaves) * 4 + len(cand.cubes) * 2 if cand else 2)
            yield Phase(locks=(), cost=cost)
            if cand is not None and cand.estimated_gain > 0:
                prep[root] = cand

        def replace_op(root: int) -> Generator[Phase, None, None]:
            cand = prep.get(root)
            if cand is None or aig.is_dead(root):
                return
            region: Set[int] = {root}
            region.update(cand.leaves)
            region.update(aig.fanouts(root))
            region.update(mffc(aig, root, cand.leaves))
            yield Phase(locks=region, cost=2 + len(cand.cubes))
            if _try_apply(aig, cand) > 0:
                result.replacements += 1

        for worklist in node_dividing(aig):
            live = [v for v in worklist if not aig.is_dead(v)]
            if not live:
                continue
            prep.clear()
            executor.run("rf-eval", live, eval_op)
            pending = [v for v in live if v in prep]
            if pending:
                executor.run("rf-replace", pending, replace_op)
        return result.finish(aig, executor.stats)
