"""Benchmark circuit generators.

Scaled-down, structurally faithful stand-ins for the EPFL suite used by
the paper (DESIGN.md documents the substitution).  Each generator
reproduces the *shape* that drives the paper's effects at tractable
size: arithmetic circuits are multiplier/adder-array heavy, ``sqrt``/
``div``/``hyp`` are very deep, ``mem_ctrl`` is wide and shallow with
high-fanout control lines, and the MtM-like circuits have few PIs with
massive internal sharing and hub nodes — the conflict generator for
lock-based parallel rewriting.
"""

from __future__ import annotations

import random
from typing import List

from ..aig import Aig, lit_not
from ..aig.build import (
    barrel_shifter,
    constant_word,
    decoder,
    less_than,
    multiplier,
    pi_word,
    popcount,
    ripple_adder,
    ripple_subtractor,
    squarer,
    word_mux,
)
from ..aig.literals import LIT_FALSE, LIT_TRUE


def _truncate(word, width):
    return word[:width] + constant_word(0, max(0, width - len(word)))


def sin_like(width: int = 8) -> Aig:
    """Polynomial (Taylor-style) approximation network: x - k3*x^3 + k5*x^5
    built from truncated multipliers and adders — multiplier-dominated,
    like EPFL ``sin``."""
    aig = Aig()
    aig.name = f"sin_w{width}"
    x = pi_word(aig, width)
    x2 = _truncate(squarer(aig, x), width)
    x3 = _truncate(multiplier(aig, x2, x), width)
    x5 = _truncate(multiplier(aig, x3, x2), width)
    term3 = constant_word(0, 2) + x3[: width - 2]          # x^3 >> 2
    term5 = constant_word(0, 4) + x5[: width - 4]          # x^5 >> 4
    y, _ = ripple_subtractor(aig, x, term3)
    y2, _ = ripple_adder(aig, y, term5)
    for bit in y2:
        aig.add_po(bit)
    return aig


def voter_like(num_inputs: int = 101) -> Aig:
    """Majority voter: popcount tree + threshold compare (EPFL ``voter``)."""
    if num_inputs % 2 == 0:
        num_inputs += 1
    aig = Aig()
    aig.name = f"voter_n{num_inputs}"
    bits = [aig.add_pi() for _ in range(num_inputs)]
    count = popcount(aig, bits)
    threshold = constant_word(num_inputs // 2 + 1, len(count))
    aig.add_po(lit_not(less_than(aig, count, threshold)))  # count > n//2
    return aig


def square_like(width: int = 10) -> Aig:
    """Squarer array (EPFL ``square``)."""
    aig = Aig()
    aig.name = f"square_w{width}"
    x = pi_word(aig, width)
    for bit in squarer(aig, x):
        aig.add_po(bit)
    return aig


def mult_like(width: int = 8) -> Aig:
    """Array multiplier (EPFL ``mult``)."""
    aig = Aig()
    aig.name = f"mult_w{width}"
    a, b = pi_word(aig, width), pi_word(aig, width)
    for bit in multiplier(aig, a, b):
        aig.add_po(bit)
    return aig


def sqrt_like(width: int = 8) -> Aig:
    """Digit-by-digit restoring square root of a ``2*width``-bit input:
    a long chain of compare-subtract rows (deep, like EPFL ``sqrt``)."""
    aig = Aig()
    aig.name = f"sqrt_w{width}"
    n = pi_word(aig, 2 * width)
    work = 2 * width + 2
    rem = constant_word(0, work)
    root: List[int] = []
    for i in reversed(range(width)):
        rem = [n[2 * i], n[2 * i + 1]] + rem[: work - 2]
        trial = [LIT_TRUE, LIT_FALSE] + root[::-1] + constant_word(
            0, work - 2 - len(root)
        )
        trial = trial[:work]
        diff, ge = ripple_subtractor(aig, rem, trial)
        rem = word_mux(aig, ge, diff, rem)
        root = root + [ge]  # LSB-last accumulation; reversed when used
    for bit in reversed(root):
        aig.add_po(bit)
    for bit in rem[: 2 * width]:
        aig.add_po(bit)
    return aig


def div_like(width: int = 8) -> Aig:
    """Restoring division array (deep, like EPFL ``div``)."""
    aig = Aig()
    aig.name = f"div_w{width}"
    dividend = pi_word(aig, width)
    divisor = pi_word(aig, width)
    work = width + 1
    rem = constant_word(0, work)
    dvs = divisor + constant_word(0, 1)
    quotient: List[int] = [LIT_FALSE] * width
    for i in reversed(range(width)):
        rem = [dividend[i]] + rem[: work - 1]
        diff, ge = ripple_subtractor(aig, rem, dvs)
        rem = word_mux(aig, ge, diff, rem)
        quotient[i] = ge
    for bit in quotient:
        aig.add_po(bit)
    for bit in rem[:width]:
        aig.add_po(bit)
    return aig


def log2_like(width: int = 16) -> Aig:
    """Priority encoder + barrel normalizer + small adder: the
    control/datapath mix of EPFL ``log2``."""
    aig = Aig()
    aig.name = f"log2_w{width}"
    x = pi_word(aig, width)
    # Priority encoding of the leading one.
    sel_bits = max(1, (width - 1).bit_length())
    pos = constant_word(0, sel_bits)
    found = LIT_FALSE
    for i in reversed(range(width)):
        here = aig.and_(x[i], lit_not(found))
        pos = word_mux(aig, here, constant_word(i, sel_bits), pos)
        found = aig.or_(found, x[i])
    # Normalize: shift the input left so the leading one leaves the word.
    inv_pos, _ = ripple_subtractor(aig, constant_word(width - 1, sel_bits), pos)
    frac = barrel_shifter(aig, x, inv_pos)
    # log2(x) ~ pos . frac adjusted by a small correction add.
    corr, _ = ripple_adder(aig, frac, [frac[-1]] + frac[:-1])
    for bit in pos:
        aig.add_po(bit)
    for bit in corr:
        aig.add_po(bit)
    aig.add_po(found)
    return aig


def mem_ctrl_like(addr_bits: int = 5, num_requests: int = 12, seed: int = 7) -> Aig:
    """Wide, shallow control logic: address decoders feeding per-bank
    grant/parity clouds with high-fanout request lines (EPFL
    ``mem_ctrl`` flavour)."""
    rng = random.Random(seed)
    aig = Aig()
    aig.name = f"mem_ctrl_a{addr_bits}r{num_requests}"
    addr = pi_word(aig, addr_bits)
    reqs = [aig.add_pi() for _ in range(num_requests)]
    mode = [aig.add_pi() for _ in range(3)]
    banks = decoder(aig, addr)
    for bank_sel in banks:
        grant = bank_sel
        for _ in range(3):
            r = reqs[rng.randrange(num_requests)]
            m = mode[rng.randrange(3)]
            term = aig.and_(r, m if rng.random() < 0.5 else lit_not(m))
            grant = aig.or_(grant, aig.and_(bank_sel, term)) if rng.random() < 0.6 \
                else aig.and_(grant, lit_not(term))
        aig.add_po(grant)
    # Parity/ack trees over all requests (high fanout on req lines).
    parity = LIT_FALSE
    for r in reqs:
        parity = aig.xor_(parity, r)
    aig.add_po(parity)
    busy = LIT_FALSE
    for r in reqs:
        busy = aig.or_(busy, r)
    aig.add_po(busy)
    return aig


def hyp_like(stages: int = 12, width: int = 10) -> Aig:
    """CORDIC-style hyperbolic iteration chain: ``stages`` dependent
    add/sub/shift rounds — extremely deep (EPFL ``hyp`` flavour)."""
    aig = Aig()
    aig.name = f"hyp_s{stages}w{width}"
    x = pi_word(aig, width)
    y = pi_word(aig, width)
    for i in range(stages):
        shift = (i % (width - 1)) + 1
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


def mtm_like(
    num_pis: int = 32,
    num_nodes: int = 3000,
    seed: int = 16,
    hub_count: int = 12,
    name: str = "",
) -> Aig:
    """MtM-set stand-in: very few PIs, heavy internal sharing, and a set
    of designated hub literals that accumulate enormous fanout — the
    property that makes fused-lock parallel rewriting collapse on the
    paper's ``sixteen``/``twenty``/``twentythree``."""
    rng = random.Random(seed)
    aig = Aig()
    aig.name = name or f"mtm_p{num_pis}n{num_nodes}s{seed}"
    pool: List[int] = [aig.add_pi() for _ in range(num_pis)]
    hubs: List[int] = list(pool[: max(2, hub_count // 2)])
    created = 0
    attempts = 0
    while created < num_nodes and attempts < num_nodes * 20:
        attempts += 1
        if rng.random() < 0.45 and hubs:
            a = rng.choice(hubs)
        else:
            a = rng.choice(pool)
        b = rng.choice(pool)
        lit = aig.and_(
            a ^ (1 if rng.random() < 0.5 else 0),
            b ^ (1 if rng.random() < 0.5 else 0),
        )
        if lit <= 1:
            continue  # folded to a constant
        if aig.num_ands == created:
            continue  # strash hit or wire: no new node
        created = aig.num_ands
        pool.append(lit)
        if len(hubs) < hub_count and rng.random() < 0.02:
            hubs.append(lit)
    # Sink every dangling node into balanced OR trees so nothing is dead.
    danglers = [2 * v for v in aig.ands() if aig.nref(v) == 0]
    rng.shuffle(danglers)
    group = max(8, len(danglers) // 32) if danglers else 1
    while danglers:
        chunk, danglers = danglers[:group], danglers[group:]
        while len(chunk) > 1:
            nxt = [
                aig.or_(chunk[i], chunk[i + 1]) for i in range(0, len(chunk) - 1, 2)
            ]
            if len(chunk) % 2:
                nxt.append(chunk[-1])
            chunk = nxt
        aig.add_po(chunk[0])
    aig.cleanup_dangling()
    return aig


def double(aig: Aig, times: int = 1) -> Aig:
    """The ABC ``double`` command: disjoint duplication (fresh PIs and
    POs), applied ``times`` times — size scales by ``2**times`` while
    complexity stays constant, exactly as the paper uses it."""
    current = aig
    for _ in range(times):
        grown = current.copy()
        current.copy_into(grown)
        base = current.name or "aig"
        grown.name = base
        current = grown
    if times:
        current.name = f"{aig.name}_{2 ** times}x"
    return current
