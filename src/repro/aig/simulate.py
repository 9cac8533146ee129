"""Bit-parallel simulation of AIGs.

Simulation vectors are arbitrary-width Python integers: bit ``k`` of a
node's value is its output under input pattern ``k``.  This gives
word-level parallelism for free (a 4096-pattern simulation is two
bigint operations per AND node) and is the workhorse behind both the
equivalence checker's counterexample search and the cut truth-table
cross-checks in the tests.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..errors import AigError
from .graph import Aig


def simulate(aig: Aig, pi_values: Sequence[int], width: int) -> List[int]:
    """Simulate ``width`` patterns at once.

    ``pi_values[i]`` is the bit-packed value vector of PI ``i``.
    Returns one packed vector per PO.
    """
    values = simulate_nodes(aig, pi_values, width)
    mask = (1 << width) - 1
    return [values[lit >> 1] ^ (mask if lit & 1 else 0) for lit in aig.pos]


def simulate_nodes(aig: Aig, pi_values: Sequence[int], width: int) -> List[int]:
    """Like :func:`simulate`, but returns the packed vector of every
    node, indexed by var (the constant and dead slots read 0)."""
    if len(pi_values) != aig.num_pis:
        raise AigError(
            f"expected {aig.num_pis} PI vectors, got {len(pi_values)}"
        )
    mask = (1 << width) - 1
    values = [0] * aig.size  # indexed by var; the constant stays 0
    for pi_var, vec in zip(aig.pis, pi_values):
        values[pi_var] = vec & mask
    fanin0, fanin1 = aig._fanin0, aig._fanin1
    for var in aig.topo_ands():
        f0, f1 = fanin0[var], fanin1[var]
        v0 = values[f0 >> 1]
        if f0 & 1:
            v0 ^= mask
        v1 = values[f1 >> 1]
        if f1 & 1:
            v1 ^= mask
        values[var] = v0 & v1
    return values


def simulate_pattern(aig: Aig, bits: Sequence[int]) -> List[int]:
    """Simulate a single 0/1 input assignment; returns 0/1 per PO."""
    return [v & 1 for v in simulate(aig, [b & 1 for b in bits], width=1)]


def exhaustive_signatures(aig: Aig) -> List[int]:
    """Truth table of every PO over all ``2**num_pis`` input patterns.

    Bit ``k`` of the result for a PO is its value when PI ``i`` carries
    bit ``i`` of ``k``.  Only sensible for smallish PI counts (the
    vectors have ``2**num_pis`` bits).
    """
    n = aig.num_pis
    if n > 24:
        raise AigError(f"exhaustive simulation of {n} PIs is not tractable")
    width = 1 << n
    pi_vecs = [_variable_mask(i, n) for i in range(n)]
    return simulate(aig, pi_vecs, width)


def _variable_mask(i: int, n: int) -> int:
    """The canonical truth table of variable ``i`` in an ``n``-var space."""
    block = (1 << (1 << i)) - 1
    period = 1 << (i + 1)
    out = 0
    for start in range(1 << i, 1 << n, period):
        out |= block << start
    return out


def random_patterns(num_pis: int, width: int, seed: int = 0) -> List[int]:
    """Deterministic random stimulus: one ``width``-bit vector per PI."""
    rng = random.Random(seed)
    return [rng.getrandbits(width) for _ in range(num_pis)]


def random_simulation(aig: Aig, width: int = 1024, seed: int = 0) -> List[int]:
    """Simulate deterministic random patterns; returns PO vectors."""
    return simulate(aig, random_patterns(aig.num_pis, width, seed), width)
