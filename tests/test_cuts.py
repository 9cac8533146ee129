"""Tests for cut enumeration: every enumerated cut must be a real cut
whose truth table matches cone simulation."""

from __future__ import annotations

import pytest

from repro.aig import Aig, lit_not, lit_var, tfi
from repro.cuts import Cut, CutManager, cut_is_stamp_alive, trivial_cut
from repro.errors import CutError
from repro.npn import eval_tt

from conftest import random_aig
from reference import ScalarCutManager


def _node_value(aig, var, pi_bits):
    """Value of a single node under a PI assignment."""
    from repro.aig.literals import lit_compl

    values = {0: 0}
    for pv, bit in zip(aig.pis, pi_bits):
        values[pv] = bit & 1
    for v in aig.topo_ands():
        f0, f1 = aig.fanins(v)
        a = values[lit_var(f0)] ^ (f0 & 1)
        b = values[lit_var(f1)] ^ (f1 & 1)
        values[v] = a & b
    return values.get(var, 0)


def _check_cut_semantics(aig, root, cut):
    """cut.tt applied to leaf values must reproduce the root value for
    every PI assignment (exhaustive over the test circuits' few PIs)."""
    n = aig.num_pis
    for k in range(1 << n):
        bits = [(k >> i) & 1 for i in range(n)]
        leaf_vals = [_node_value(aig, leaf, bits) for leaf in cut.leaves]
        assert eval_tt(cut.tt, leaf_vals) == _node_value(aig, root, bits), (
            f"cut {cut.leaves} of node {root} wrong at pattern {bits}"
        )


def _check_is_structural_cut(aig, root, cut):
    """Every PI in the TFI of root must be blocked by a leaf."""
    leaves = set(cut.leaves)
    if root in leaves:
        return
    stack = [root]
    seen = set()
    while stack:
        v = stack.pop()
        if v in seen or v in leaves:
            continue
        seen.add(v)
        assert aig.is_and(v), (
            f"path from node {root} reached non-leaf terminal {v} "
            f"bypassing cut {cut.leaves}"
        )
        stack.append(lit_var(aig.fanin0(v)))
        stack.append(lit_var(aig.fanin1(v)))


class TestCutBasics:
    def test_trivial_cut(self):
        aig = Aig()
        a = aig.add_pi()
        cut = trivial_cut(aig, lit_var(a))
        assert cut.leaves == (lit_var(a),)
        assert cut.tt == 0b10

    def test_pi_has_only_trivial_cut(self):
        aig = Aig()
        a = aig.add_pi()
        mgr = CutManager(aig)
        cuts = mgr.cuts(lit_var(a))
        assert len(cuts) == 1
        assert cuts[0].leaves == (lit_var(a),)

    def test_and_node_cuts(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        f = aig.and_(a, b)
        aig.add_po(f)
        mgr = CutManager(aig)
        cuts = mgr.cuts(lit_var(f))
        leaf_sets = {c.leaves for c in cuts}
        assert (lit_var(a), lit_var(b)) in leaf_sets or (
            lit_var(b),
            lit_var(a),
        ) in leaf_sets
        assert (lit_var(f),) in leaf_sets  # trivial cut present
        for cut in cuts:
            _check_cut_semantics(aig, lit_var(f), cut)

    def test_complemented_fanins_fold_into_tt(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        f = aig.and_(lit_not(a), b)  # ~a & b
        aig.add_po(f)
        mgr = CutManager(aig)
        cuts = [c for c in mgr.cuts(lit_var(f)) if c.size == 2]
        assert cuts
        for cut in cuts:
            _check_cut_semantics(aig, lit_var(f), cut)

    def test_invalid_k_raises(self):
        aig = Aig()
        with pytest.raises(CutError):
            CutManager(aig, k=7)

    def test_cuts_of_dead_node_raise(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        f = aig.and_(a, b)
        idx = aig.add_po(f)
        fv = lit_var(f)
        aig.set_po(idx, a)
        mgr = CutManager(aig)
        with pytest.raises(CutError):
            mgr.cuts(fv)


class TestCutCorrectness:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_cuts_semantically_correct(self, seed):
        aig = random_aig(num_pis=5, num_nodes=30, num_pos=4, seed=seed)
        mgr = CutManager(aig, max_cuts=20)
        for var in aig.topo_ands():
            for cut in mgr.cuts(var):
                assert cut.size <= 4
                _check_is_structural_cut(aig, var, cut)
                _check_cut_semantics(aig, var, cut)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_dominated_cuts(self, seed):
        aig = random_aig(num_pis=5, num_nodes=30, seed=seed)
        mgr = CutManager(aig)
        for var in aig.topo_ands():
            cuts = [c for c in mgr.cuts(var) if c.size > 1]
            for i, a in enumerate(cuts):
                for b in cuts[i + 1 :]:
                    assert not (
                        set(a.leaves) < set(b.leaves)
                        or set(b.leaves) < set(a.leaves)
                    ), f"dominated cut pair {a.leaves} / {b.leaves}"

    def test_max_cuts_respected(self):
        aig = random_aig(num_pis=6, num_nodes=60, seed=1)
        mgr = CutManager(aig, max_cuts=5)
        for var in aig.topo_ands():
            # +1 for the always-present trivial cut
            assert len(mgr.cuts(var)) <= 6

    def test_deep_chain_no_recursion_error(self):
        aig = Aig()
        acc = aig.add_pi()
        for _ in range(3000):
            acc = aig.and_(acc, aig.add_pi())
        aig.add_po(acc)
        mgr = CutManager(aig, max_cuts=4)
        assert mgr.cuts(lit_var(acc))


class TestCutCache:
    def test_cache_reused(self):
        aig = random_aig(seed=2)
        mgr = CutManager(aig)
        top = aig.topo_ands()[-1]
        mgr.cuts(top)
        work_before = mgr.work
        mgr.cuts(top)
        assert mgr.work == work_before, "second query must hit the cache"

    def test_stamp_change_triggers_recompute(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        f = aig.and_(a, b)
        top = aig.and_(f, c)
        aig.add_po(top)
        mgr = CutManager(aig)
        mgr.cuts(lit_var(top))
        # Restructure: replace f by a&c — top's fanins change, stamp bumps.
        g = aig.and_(a, c)
        aig.replace(lit_var(f), g)
        cuts = mgr.cuts(lit_var(top))
        for cut in cuts:
            for leaf in cut.leaves:
                assert not aig.is_dead(leaf)

    def test_stale_leaf_detected(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        f = aig.and_(a, b)
        top = aig.and_(f, c)
        aig.add_po(top)
        mgr = CutManager(aig)
        cuts_before = mgr.cuts(lit_var(top))
        stored = [c0 for c0 in cuts_before if lit_var(f) in c0.leaves]
        assert stored
        # Kill f (replace by a wire) — its id dies.
        aig.replace(lit_var(f), a)
        for cut in stored:
            assert not cut_is_stamp_alive(aig, cut)

    def test_id_reuse_detected_by_stamp(self):
        """The Fig. 3 scenario: leaf deleted, id reused by a different
        function — liveness alone would miss it, stamps catch it."""
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        f = aig.and_(a, b)
        top = aig.and_(f, c)
        aig.add_po(top)
        mgr = CutManager(aig)
        stored = [cut for cut in mgr.cuts(lit_var(top)) if lit_var(f) in cut.leaves]
        fv = lit_var(f)
        aig.replace(fv, a)          # f dies, id freed
        reborn = aig.and_(b, c)     # id reused for b&c
        assert lit_var(reborn) == fv
        assert not aig.is_dead(fv)  # alive again...
        for cut in stored:
            assert not cut_is_stamp_alive(aig, cut)  # ...but stale


class TestExpandMemo:
    def _cut_sets(self, mgr, aig):
        return {
            v: [(c.leaves, c.tt) for c in mgr.cuts(v)] for v in aig.topo_ands()
        }

    def test_batch_and_scalar_paths_identical(self):
        aig = random_aig(num_pis=6, num_nodes=200, num_pos=4, seed=23)
        assert self._cut_sets(CutManager(aig), aig) == \
            self._cut_sets(ScalarCutManager(aig), aig)
