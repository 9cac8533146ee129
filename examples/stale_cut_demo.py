#!/usr/bin/env python3
"""Reconstruction of the paper's Fig. 3: the stale-cut hazard.

A node's cut is enumerated and a replacement evaluated; before the
replacement is applied, *another* replacement deletes one of the cut's
leaves and its id is recycled for a different function.  The leaf id is
alive again — a liveness check would pass! — but the stored truth table
is wrong.  DACPara's replacement-time validation catches this through
life stamps and the NPN-class re-check.

Run:  python examples/stale_cut_demo.py
"""

from repro import Aig
from repro.aig import lit_var
from repro.config import RewriteConfig
from repro.core import validate_candidate
from repro.core.validation import ValidationStats
from repro.cuts import CutManager, cut_is_stamp_alive, cut_leaves_alive
from repro.library import get_library
from repro.rewrite import find_best_candidate


def _candidate_with_internal_leaf(aig, root, cutman):
    """Pick a stored evaluation whose cut uses an internal node as a
    leaf — the precondition of the Fig. 3 scenario."""
    from repro.npn import npn_canon
    from repro.rewrite.base import Candidate, cut_tt4

    for cut in cutman.cuts(root):
        if cut.size < 2 or not any(aig.is_and(l) for l in cut.leaves):
            continue
        canon, transform = npn_canon(cut_tt4(cut))
        structure = get_library().structures(canon)[0]
        return Candidate(
            root=root, root_stamp=aig.stamp(root),
            root_life=aig.life_stamp(root), cut=cut, canon_tt=canon,
            transform=transform, structure=structure, gain=0,
            new_root_level=aig.level(root),
        )
    raise RuntimeError("no cut with an internal leaf")


def main() -> None:
    aig = Aig()
    a, b, c, d = (aig.add_pi() for _ in range(4))
    shared = aig.and_(a, b)          # an internal node other logic reuses
    mid = aig.and_(shared, c)
    top = aig.and_(mid, d)
    aig.add_po(top)
    aig.add_po(shared)

    config = RewriteConfig(npn_classes="all222", zero_gain=True)
    cutman = CutManager(aig)
    candidate = _candidate_with_internal_leaf(aig, lit_var(top), cutman)
    print(f"stored cut of node {lit_var(top)}: leaves {candidate.cut.leaves}")

    victim = next(l for l in candidate.cut.leaves if aig.is_and(l))
    print(f"another thread now rewrites leaf {victim} away...")
    aig.replace(victim, a)           # victim dies, id goes to the free list

    reborn = aig.and_(c, d)          # the id comes back as a new function
    print(f"...and a new node reuses its id: node {lit_var(reborn)} = c & d")
    assert lit_var(reborn) == victim

    print(f"leaves alive?        {cut_leaves_alive(aig, candidate.cut)}  "
          "(a liveness-only check would be fooled)")
    print(f"leaves stamp-alive?  {cut_is_stamp_alive(aig, candidate.cut)}  "
          "(the life stamp catches the reuse)")

    stats = ValidationStats()
    refreshed = validate_candidate(aig, cutman, candidate, config, stats=stats)
    print(f"validation outcome:  {'re-matched' if refreshed else 'rejected'}")
    print(f"validation path:     {stats.as_dict()}")
    assert stats.fast_path == 0, "the stale cut must not pass the fast path"


if __name__ == "__main__":
    main()
