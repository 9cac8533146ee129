"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.aig import Aig, lit_not
from repro.aig.build import (
    constant_word,
    pi_word,
    ripple_adder,
    ripple_subtractor,
    word_mux,
)


def random_aig(
    num_pis: int = 6,
    num_nodes: int = 40,
    num_pos: int = 4,
    seed: int = 0,
) -> Aig:
    """A deterministic random strashed AIG for structural tests."""
    rng = random.Random(seed)
    aig = Aig()
    lits = [aig.add_pi() for _ in range(num_pis)]
    for _ in range(num_nodes):
        a = rng.choice(lits) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        lits.append(aig.and_(a, b))
    pool = [l for l in lits if l > 1]
    for _ in range(num_pos):
        aig.add_po(rng.choice(pool) ^ rng.randint(0, 1))
    aig.cleanup_dangling()
    return aig


def deep_chain_circuit(stages: int = 20, width: int = 4, seed: int = 0):
    """Dependent add/sub/shift/mux rounds: ~5.5 levels and ~75 ANDs per
    stage at ``width=4``, 8 PIs (exhaustive equivalence stays exact)."""
    rng = random.Random(seed)
    aig = Aig()
    x = pi_word(aig, width)
    y = pi_word(aig, width)
    for _ in range(stages):
        shift = rng.randrange(1, width)
        xs = constant_word(0, shift) + x[: width - shift]
        ys = constant_word(0, shift) + y[: width - shift]
        sign = y[-1]
        x_add, _ = ripple_adder(aig, x, ys)
        x_sub, _ = ripple_subtractor(aig, x, ys)
        y_add, _ = ripple_adder(aig, y, xs)
        y_sub, _ = ripple_subtractor(aig, y, xs)
        x = word_mux(aig, sign, x_add, x_sub)
        y = word_mux(aig, sign, y_sub, y_add)
    for bit in x + y:
        aig.add_po(bit)
    return aig


def capture_cut_managers(monkeypatch) -> list:
    """The list every ``CutManager`` (or subclass) built from now on is
    appended to, in construction order — a run's own manager is the
    first one it creates (``DACParaRewriter.run`` keeps it local)."""
    from repro.cuts import CutManager

    managers: list = []
    real_init = CutManager.__init__
    monkeypatch.setattr(
        CutManager, "__init__",
        lambda self, *a, **k: managers.append(self) or real_init(self, *a, **k))
    return managers


def harvest_plan(cutman):
    """Walk ``cutman``'s graph in topological order: every node whose
    merge :meth:`~repro.cuts.CutManager.enum_harvest` accepts becomes a
    task of the returned one-wave ``EnumPlan`` (merged by nobody yet),
    every other one is enumerated per root on the spot."""
    from repro.cuts.manager import EnumPlan

    roots, lits = [], []
    for v in cutman.aig.topo_ands():
        harvest = cutman.enum_harvest(v)
        if harvest is None:
            cutman.fresh_cuts(v)
        else:
            roots.append(v)
            lits.append(harvest)
    assert roots  # the worklist path is actually exercised
    f0, f1 = zip(*lits)
    return EnumPlan(roots, f0, f1)


def stage_tuple(stage) -> tuple:
    """Everything deterministic a ``StageStats`` records."""
    return (stage.name, stage.activities, stage.committed, stage.conflicts,
            stage.useful_units, stage.aborted_units, stage.retries,
            stage.start_time, stage.end_time)


@pytest.fixture
def small_aig() -> Aig:
    """f = (a & b) | (~a & c), g = a ^ b — a tiny well-known circuit."""
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    t0 = aig.and_(a, b)
    t1 = aig.and_(lit_not(a), c)
    f = aig.or_(t0, t1)
    g = aig.xor_(a, b)
    aig.add_po(f)
    aig.add_po(g)
    return aig
