"""Machinery shared by every rewriting engine.

Two responsibilities:

* **Evaluation** — given a node, a cut and a candidate structure,
  compute the exact gain of replacing the cut cone by the structure,
  *with logical sharing*: existing strash-equivalent nodes cost
  nothing, and a structure that resurrects a node slated for deletion
  pays for it by shrinking the savings (local reference-count shadowing
  with revival — no shared state is touched, which is what lets
  DACPara's evaluation stage run lock-free).
* **Instantiation** — build the chosen structure in the AIG over the
  cut leaves, honoring the NPN witness transform.

Candidate selection — the inner loop of Mishchenko's DAG-aware
rewriting — is :func:`repro.rewrite.columnar.find_best_candidate`, the
columnar eval kernel on one root; :func:`evaluate_candidate` stays the
single-pair scorer DACPara's validation re-checks a stored result with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..aig import Aig
from ..aig.literals import LIT_FALSE, lit_var, make_lit
from ..aig.traversal import is_in_tfi
from ..cuts import Cut
from ..library import Structure
from ..npn import NpnTransform
from ..npn.truth import expand


class WorkMeter:
    """Accumulates abstract work units (the simulated-time currency)."""

    __slots__ = ("units",)

    def __init__(self) -> None:
        self.units = 0

    def add(self, n: int) -> None:
        self.units += n


@dataclass
class Evaluation:
    """Outcome of evaluating one (cut, structure) pair on one node."""

    gain: int
    added: int
    saved: int
    out_is_existing: bool
    new_root_level: int


@dataclass
class Candidate:
    """Best replacement found for a node (the paper's prepInfo entry).

    ``root_life`` pins the root's *incarnation*: if the root id is
    deleted and recycled for a different node before the replacement is
    applied (the Fig. 3 hazard on the root side), the stored result
    must be discarded — a bare liveness check cannot tell the two
    nodes apart."""

    root: int
    root_stamp: int
    root_life: int
    cut: Cut
    canon_tt: int
    transform: NpnTransform
    structure: Structure
    gain: int
    new_root_level: int


def cut_tt4(cut: Cut) -> int:
    """The cut function lifted into the full 4-variable space."""
    if cut.size == 4:
        return cut.tt
    src = tuple(range(cut.size))
    return expand(cut.tt, src, (0, 1, 2, 3))


def leaf_literals(cut: Cut, transform: NpnTransform) -> List[int]:
    """Literal feeding each canonical structure input.

    Structure input ``i`` reads leaf ``perm[i]`` complemented by bit
    ``i`` of the negation mask; positions beyond the cut size are
    padding variables the canonical function cannot depend on, so they
    are safely tied to constant false.
    """
    lits: List[int] = []
    for pos, neg in transform.leaf_assignment():
        if pos < cut.size:
            lits.append(make_lit(cut.leaves[pos], neg))
        else:
            lits.append(LIT_FALSE ^ int(neg))
    return lits


def evaluate_candidate(
    aig: Aig,
    root: int,
    cut: Cut,
    structure: Structure,
    transform: NpnTransform,
    meter: Optional[WorkMeter] = None,
) -> Optional[Evaluation]:
    """Exact replacement gain on the current graph; read-only.

    Returns ``None`` when the replacement would be the identity (the
    structure strash-resolves to the root itself).
    """
    if meter is not None:
        meter.add(len(structure.nodes) + 2)
    leaves_set = set(cut.leaves)

    # --- local deref: nodes that die when the root's cut cone goes ----
    local_ref: Dict[int, int] = {}
    dead: Set[int] = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for fl in aig.fanins(v):
            fv = lit_var(fl)
            refs = local_ref.get(fv)
            if refs is None:
                refs = aig.nref(fv)
            refs -= 1
            local_ref[fv] = refs
            if refs == 0 and aig.is_and(fv) and fv not in leaves_set:
                dead.add(fv)
                stack.append(fv)

    def revive(v: int) -> None:
        """Undo the local deref for a resurrected node's cone."""
        rstack = [v]
        while rstack:
            u = rstack.pop()
            if u not in dead:
                continue
            dead.discard(u)
            for fl in aig.fanins(u):
                fv = lit_var(fl)
                local_ref[fv] = local_ref.get(fv, aig.nref(fv)) + 1
                if fv in dead and local_ref[fv] > 0:
                    rstack.append(fv)

    # --- dry-run build with sharing --------------------------------
    inputs = leaf_literals(cut, transform)
    values: List[int] = [LIT_FALSE] + inputs  # structure var -> AIG literal
    levels: Dict[int, int] = {}
    pseudo_base = aig.size
    overlay: Dict[Tuple[int, int], int] = {}
    added = 0

    def lit_level(lit: int) -> int:
        v = lit >> 1
        return levels[v] if v >= pseudo_base else aig.level(v)

    for l0, l1 in structure.nodes:
        a = values[l0 >> 1] ^ (l0 & 1)
        b = values[l1 >> 1] ^ (l1 & 1)
        folded = Aig._fold_trivial(a, b)
        if folded >= 0:
            values.append(folded)
            continue
        if a > b:
            a, b = b, a
        if a < 2 * pseudo_base and b < 2 * pseudo_base:
            hit = aig.has_and(a, b)
            if hit >= 0:
                hv = lit_var(hit)
                if hv == root:
                    # The structure rebuilds the root internally; using it
                    # would put the root in its own replacement cone.
                    return None
                if hv in dead:
                    revive(hv)
                values.append(hit)
                continue
        hit = overlay.get((a, b), -1)
        if hit >= 0:
            values.append(hit)
            continue
        new_var = pseudo_base + added
        added += 1
        levels[new_var] = max(lit_level(make_lit(a >> 1)), lit_level(make_lit(b >> 1))) + 1
        new_lit = make_lit(new_var)
        overlay[(a, b)] = new_lit
        values.append(new_lit)

    out_lit = values[structure.out >> 1] ^ (structure.out & 1) ^ int(transform.out_neg)
    if lit_var(out_lit) == root:
        return None  # identity replacement
    out_var = lit_var(out_lit)
    new_level = levels[out_var] if out_var >= pseudo_base else aig.level(out_var)
    return Evaluation(
        gain=len(dead) - added,
        added=added,
        saved=len(dead),
        out_is_existing=out_var < pseudo_base,
        new_root_level=new_level,
    )


def instantiate(
    aig: Aig,
    cut: Cut,
    structure: Structure,
    transform: NpnTransform,
    created: Optional[List[int]] = None,
) -> int:
    """Materialize the structure over the cut leaves; returns the new
    output literal (not yet connected to anything).  When ``created``
    is given, the vars of freshly created nodes are appended to it (so
    a caller that aborts can recycle them)."""
    inputs = leaf_literals(cut, transform)
    values: List[int] = [LIT_FALSE] + inputs
    for l0, l1 in structure.nodes:
        a = values[l0 >> 1] ^ (l0 & 1)
        b = values[l1 >> 1] ^ (l1 & 1)
        before = aig.num_ands
        lit = aig.and_(a, b)
        if created is not None and aig.num_ands > before:
            created.append(lit_var(lit))
        values.append(lit)
    return values[structure.out >> 1] ^ (structure.out & 1) ^ int(transform.out_neg)


def apply_candidate(aig: Aig, candidate: Candidate) -> int:
    """Instantiate and splice in a chosen replacement.

    Returns the actual node-count change (positive = nodes saved).
    The caller is responsible for having validated the candidate's
    *gain* on the current graph (DACPara's replacement operator does);
    structural safety — identity replacements and cycles, which a
    static-information flow can produce — is guarded here, with any
    speculatively created nodes recycled on abort.
    """
    before = aig.num_ands
    created: List[int] = []
    new_lit = instantiate(
        aig, candidate.cut, candidate.structure, candidate.transform, created
    )
    new_var = lit_var(new_lit)
    if new_var == candidate.root or is_in_tfi(aig, candidate.root, new_var):
        for var in reversed(created):
            aig.delete_if_dangling(var)
        return 0
    aig.replace(candidate.root, new_lit)
    # Constant folding inside the build can orphan intermediate nodes
    # (they never joined the output cone); recycle them.
    for var in reversed(created):
        if not aig.is_dead(var):
            aig.delete_if_dangling(var)
    return before - aig.num_ands
