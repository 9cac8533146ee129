"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.aig import Aig, lit_not


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
