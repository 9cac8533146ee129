"""Regression tests for the root-id-reuse hazard.

The paper's Fig. 3 discusses cut *leaves* being deleted and reused;
the same hazard exists for the candidate's *root*: between evaluation
and replacement, earlier replacements can free the root's id and a new
node can reclaim it.  A bare liveness check then applies a stored
replacement to the wrong node, silently corrupting the function.  This
was a real bug found by equivalence checking the static (GPU-model)
engine; these tests pin the fix (life-stamp pinning of the root in
every validation path).
"""

from __future__ import annotations

import pytest

from repro.aig import Aig, lit_var
from repro.bench import mtm_like
from repro.config import RewriteConfig, gpu_config
from repro.core import DACParaRewriter, validate_candidate
from repro.core.validation import ValidationStats
from repro.cuts import CutManager
from repro.library import get_library
from repro.rewrite import StaticRewriter
from repro.rewrite import find_best_candidate
from repro.sat import check_equivalence_auto


def _redundant_pair():
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    f = aig.and_(a, aig.and_(b, c))
    g = aig.and_(aig.and_(a, b), c)
    aig.add_po(f)
    aig.add_po(g)
    return aig, g


def test_validation_rejects_reused_root():
    aig, g = _redundant_pair()
    config = RewriteConfig(npn_classes="all222")
    cutman = CutManager(aig)
    cand = find_best_candidate(aig, lit_var(g), cutman, get_library(), config)
    assert cand is not None
    # Kill the root and let a new node reclaim its id (build fresh
    # functions until the free list hands the root id back).
    root = cand.root
    aig.replace(root, aig.fanin0(root))
    assert aig.is_dead(root)
    pis = list(aig.pis)
    reclaimed = False
    for i in range(len(pis)):
        for j in range(i + 1, len(pis)):
            for phase in range(4):
                lit = aig.and_(2 * pis[i] ^ (phase & 1), 2 * pis[j] ^ (phase >> 1))
                if lit_var(lit) == root:
                    reclaimed = True
                    break
            if reclaimed:
                break
        if reclaimed:
            break
    assert reclaimed, "test requires id reuse"
    assert not aig.is_dead(root)
    stats = ValidationStats()
    assert validate_candidate(aig, cutman, cand, config, stats=stats) is None


@pytest.mark.parametrize("variant", ["dac22", "tcad23"])
def test_static_engines_survive_root_reuse_storms(variant):
    """MtM-like circuits at the GPU budget generate hundreds of stale
    candidates and heavy id recycling — end-to-end equivalence is the
    regression oracle (this exact setup exposed the original bug)."""
    original = mtm_like(num_pis=24, num_nodes=1600, seed=16)
    working = original.copy()
    StaticRewriter(gpu_config(workers=64), variant=variant).run(working)
    assert check_equivalence_auto(original, working).equivalent


def test_dacpara_survives_root_reuse_storms():
    original = mtm_like(num_pis=24, num_nodes=1200, seed=5)
    working = original.copy()
    DACParaRewriter(gpu_config(workers=40)).run(working)
    assert check_equivalence_auto(original, working).equivalent
