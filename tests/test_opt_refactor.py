"""Tests for large-cut refactoring (serial and parallel)."""

from __future__ import annotations

import pytest

from repro.aig import Aig, check, exhaustive_signatures, lit_var, tfi
from repro.npn import eval_tt
from repro.opt import (
    ParallelRefactor,
    RefactorEngine,
    cone_truth_table,
    reconvergence_cut,
)

from conftest import random_aig


class TestReconvergenceCut:
    def test_is_a_cut(self):
        """Every PI-to-root path must pass through a leaf."""
        for seed in range(6):
            aig = random_aig(num_pis=6, num_nodes=60, num_pos=4, seed=seed)
            for root in list(aig.ands())[:10]:
                leaves = set(reconvergence_cut(aig, root, max_leaves=8))
                stack = [root]
                seen = set()
                while stack:
                    v = stack.pop()
                    if v in leaves or v in seen:
                        continue
                    seen.add(v)
                    assert aig.is_and(v), f"path escaped the cut at {v}"
                    stack.append(lit_var(aig.fanin0(v)))
                    stack.append(lit_var(aig.fanin1(v)))

    def test_respects_max_leaves_mostly(self):
        """Leaf count may exceed the budget only through zero-cost
        (reconvergent) expansions; it must stay close."""
        aig = random_aig(num_pis=8, num_nodes=120, num_pos=5, seed=3)
        for root in list(aig.ands())[:15]:
            leaves = reconvergence_cut(aig, root, max_leaves=8)
            assert len(leaves) <= 9

    def test_cone_truth_table_matches_simulation(self):
        for seed in range(4):
            aig = random_aig(num_pis=5, num_nodes=40, num_pos=3, seed=seed)
            for root in list(aig.ands())[:6]:
                leaves = reconvergence_cut(aig, root, max_leaves=6)
                if root in leaves:
                    continue
                tt = cone_truth_table(aig, root, leaves)
                # Cross-check: brute-force over leaf assignments by
                # querying node values derived from PI patterns is
                # complex; instead verify via substitution — evaluate
                # the cone directly per minterm.
                from repro.aig.literals import lit_compl

                for minterm in range(1 << len(leaves)):
                    values = {leaf: (minterm >> i) & 1
                              for i, leaf in enumerate(leaves)}
                    values[0] = 0

                    def node_val(v):
                        if v in values:
                            return values[v]
                        f0, f1 = aig.fanins(v)
                        a = node_val(lit_var(f0)) ^ (f0 & 1)
                        b = node_val(lit_var(f1)) ^ (f1 & 1)
                        values[v] = a & b
                        return values[v]

                    assert node_val(root) == (tt >> minterm) & 1


class TestSerialRefactor:
    def test_reduces_flat_sop_circuit(self):
        """A sum-of-minterms build of a simple function has plenty of
        fat for refactoring to trim."""
        aig = Aig()
        pis = [aig.add_pi() for _ in range(4)]
        # f = x0 | x1x2x3 built wastefully as four minterm groups.
        minterms = [m for m in range(16)
                    if (m & 1) or (m & 0b1110) == 0b1110]
        terms = []
        for m in minterms:
            t = 1
            for i in range(4):
                t = aig.and_(t, pis[i] ^ (0 if (m >> i) & 1 else 1))
            terms.append(t)
        acc = 0
        for t in terms:
            acc = aig.or_(acc, t)
        aig.add_po(acc)
        before = aig.num_ands
        sigs = exhaustive_signatures(aig)
        result = RefactorEngine(max_leaves=6).run(aig)
        assert aig.num_ands < before
        assert exhaustive_signatures(aig) == sigs
        check(aig)
        assert result.replacements > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_function_preserved_on_random(self, seed):
        aig = random_aig(num_pis=7, num_nodes=150, num_pos=6, seed=seed)
        sigs = exhaustive_signatures(aig)
        result = RefactorEngine().run(aig)
        assert exhaustive_signatures(aig) == sigs
        check(aig)
        assert result.area_reduction >= 0

    def test_never_increases_area(self):
        for seed in range(6):
            aig = random_aig(num_pis=7, num_nodes=150, num_pos=6, seed=seed + 50)
            before = aig.num_ands
            RefactorEngine().run(aig)
            assert aig.num_ands <= before


class TestParallelRefactor:
    @pytest.mark.parametrize("seed", range(4))
    def test_function_preserved(self, seed):
        aig = random_aig(num_pis=7, num_nodes=150, num_pos=6, seed=seed)
        sigs = exhaustive_signatures(aig)
        result = ParallelRefactor(workers=8).run(aig)
        assert exhaustive_signatures(aig) == sigs
        check(aig)
        assert result.makespan_units > 0

    def test_quality_comparable_to_serial(self):
        total_serial = total_parallel = 0
        for seed in range(5):
            a = random_aig(num_pis=7, num_nodes=200, num_pos=6, seed=seed)
            b = a.copy()
            total_serial += RefactorEngine().run(a).area_reduction
            total_parallel += ParallelRefactor(workers=8).run(b).area_reduction
        assert total_parallel >= 0.6 * total_serial

    def test_attempted_counts_every_live_root(self):
        """The eval stage counts each root it evaluates, as the serial
        loop does: with nothing to gain, that is every AND node."""
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        aig.add_po(aig.and_(aig.and_(a, b), aig.and_(c, d)))
        serial = RefactorEngine().run(aig.copy())
        parallel = ParallelRefactor(workers=8).run(aig.copy())
        assert serial.attempted == parallel.attempted == aig.num_ands == 3
        assert parallel.replacements == 0

        aig = random_aig(num_pis=7, num_nodes=200, num_pos=6, seed=1)
        before = aig.num_ands
        result = ParallelRefactor(workers=8).run(aig)
        assert 0 < result.replacements <= result.attempted <= before

    def test_parallel_speedup(self):
        a = random_aig(num_pis=8, num_nodes=300, num_pos=8, seed=77)
        b = a.copy()
        r1 = ParallelRefactor(workers=1).run(a)
        r8 = ParallelRefactor(workers=8).run(b)
        assert r8.makespan_units < r1.makespan_units
