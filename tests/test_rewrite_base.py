"""Tests for the shared rewriting machinery (evaluation/instantiation)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig import Aig, check, exhaustive_signatures, lit_not, lit_var
from repro.config import RewriteConfig
from repro.cuts import Cut, CutManager
from repro.library import get_library
from repro.npn import MASK4, npn_canon
from repro.rewrite import (
    WorkMeter,
    apply_candidate,
    cut_tt4,
    evaluate_candidate,
    find_best_candidate,
    instantiate,
    leaf_literals,
)

from conftest import random_aig


class TestInstantiation:
    @given(st.integers(0, MASK4))
    @settings(max_examples=60, deadline=None)
    def test_instantiated_structure_matches_cut_function(self, tt):
        """Build a structure for a random function over 4 fresh PIs via
        the NPN witness path and verify by exhaustive simulation.  This
        nails the transform-direction conventions."""
        aig = Aig()
        pis = [aig.add_pi() for _ in range(4)]
        leaves = tuple(sorted(lit_var(p) for p in pis))
        cut = Cut(leaves=leaves, tt=tt, leaf_stamps=tuple(aig.stamp(l) for l in leaves))
        canon, transform = npn_canon(tt)
        structure = get_library().structures(canon)[0]
        out = instantiate(aig, cut, structure, transform)
        aig.add_po(out)
        (sig,) = exhaustive_signatures(aig)
        assert sig == tt, f"function {tt:04x} realized as {sig:04x}"
        check(aig)

    def test_leaf_literals_padding(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        leaves = tuple(sorted((lit_var(a), lit_var(b))))
        cut = Cut(leaves=leaves, tt=0b1000, leaf_stamps=(1, 2))
        canon, transform = npn_canon(cut_tt4(cut))
        lits = leaf_literals(cut, transform)
        assert len(lits) == 4
        # Padded positions resolve to constants.
        real = [l for l in lits if l > 1]
        assert len(real) == 2


class TestEvaluation:
    def test_positive_gain_on_redundant_cone(self):
        """(a&b)&(a&b) style redundancy: two structurally different
        computations of the same function; rewriting one to reuse the
        other must show positive gain through sharing."""
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        # f = a & (b & c), g = (a & b) & c  -- same function, 4 nodes
        f = aig.and_(a, aig.and_(b, c))
        g = aig.and_(aig.and_(a, b), c)
        aig.add_po(f)
        aig.add_po(g)
        assert aig.num_ands == 4
        config = RewriteConfig(npn_classes="all222")
        cutman = CutManager(aig)
        cand = find_best_candidate(
            aig, lit_var(g), cutman, get_library(), config, WorkMeter()
        )
        assert cand is not None and cand.gain > 0

    def test_no_gain_on_irredundant_node(self):
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        f = aig.and_(a, b)
        aig.add_po(f)
        config = RewriteConfig(npn_classes="all222")
        cand = find_best_candidate(
            aig, lit_var(f), CutManager(aig), get_library(), config, WorkMeter()
        )
        assert cand is None

    def test_evaluation_is_readonly(self):
        aig = random_aig(num_pis=5, num_nodes=40, seed=4)
        epoch = aig.mutation_epoch
        config = RewriteConfig(npn_classes="all222")
        cutman = CutManager(aig)
        for root in list(aig.ands())[:10]:
            find_best_candidate(aig, root, cutman, get_library(), config)
        assert aig.mutation_epoch == epoch
        check(aig)

    def test_gain_matches_actual_savings(self):
        """The predicted gain must equal the real node-count change."""
        rng = random.Random(0)
        config = RewriteConfig(npn_classes="all222")
        for seed in range(10):
            aig = random_aig(num_pis=5, num_nodes=50, num_pos=4, seed=seed)
            cutman = CutManager(aig)
            for root in aig.topo_ands():
                if aig.is_dead(root):
                    continue
                cand = find_best_candidate(
                    aig, root, cutman, get_library(), config
                )
                if cand is None:
                    continue
                saved = apply_candidate(aig, cand)
                # The replace cascade can fold fanouts (constant/wire
                # outputs, strash merges) and save *more* than predicted;
                # it must never save less.
                assert saved >= cand.gain, (
                    f"seed {seed} root {root}: predicted {cand.gain}, got {saved}"
                )
                check(aig)
                break  # one replacement per circuit is enough here


class TestZeroGain:
    def test_zero_gain_config_allows_restructuring(self):
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        f = aig.and_(aig.and_(a, b), aig.and_(c, d))
        aig.add_po(f)
        config = RewriteConfig(npn_classes="all222", zero_gain=True)
        cand = find_best_candidate(
            aig, lit_var(f), CutManager(aig), get_library(), config
        )
        # With zero-gain allowed, some candidate must be acceptable.
        assert cand is not None
        assert cand.gain >= 0
