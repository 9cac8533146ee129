"""Small truth-table utilities (up to 4 variables).

A truth table of ``n`` variables is an integer with ``2**n`` bits; bit
``k`` is the function value when variable ``i`` carries bit ``i`` of
``k``.  Four variables (16-bit tables, the paper's cut size) is the
common case everywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..errors import CutError

# Elementary truth tables of variables x0..x3 in the 4-variable space.
VAR4 = (0xAAAA, 0xCCCC, 0xF0F0, 0xFF00)
MASK4 = 0xFFFF


def full_mask(n: int) -> int:
    """All-ones table for ``n`` variables."""
    return (1 << (1 << n)) - 1


def var_table(i: int, n: int) -> int:
    """Truth table of variable ``i`` in an ``n``-variable space."""
    if i >= n:
        raise CutError(f"variable {i} out of range for {n}-var table")
    block = (1 << (1 << i)) - 1
    period = 1 << (i + 1)
    out = 0
    for start in range(1 << i, 1 << n, period):
        out |= block << start
    return out


def cofactor(tt: int, var: int, value: int, n: int) -> int:
    """Shannon cofactor with ``var`` fixed to ``value`` (result still
    expressed in the full ``n``-variable space)."""
    vmask = var_table(var, n)
    shift = 1 << var
    if value:
        pos = tt & vmask
        return pos | (pos >> shift)
    neg = tt & ~vmask & full_mask(n)
    return neg | (neg << shift)


def depends_on(tt: int, var: int, n: int) -> bool:
    """True when the function actually depends on ``var``."""
    return cofactor(tt, var, 0, n) != cofactor(tt, var, 1, n)


def support(tt: int, n: int) -> Tuple[int, ...]:
    """Indices of variables the function depends on."""
    return tuple(i for i in range(n) if depends_on(tt, i, n))


def expand(tt: int, src: Tuple[int, ...], dst: Tuple[int, ...]) -> int:
    """Re-express ``tt`` over variable list ``src`` in the space of the
    superset variable list ``dst`` (both sorted leaf-id tuples).

    Used when merging cuts: each fanin cut's table is lifted to the
    union leaf set before combining.  This is the cut enumerator's
    hottest loop, so the tt-independent minterm mapping is cached per
    position pattern.
    """
    if src == dst:
        return tt
    pos = []
    for s in src:
        try:
            pos.append(dst.index(s))
        except ValueError:
            raise CutError(f"leaf {s} of source cut missing from target {dst}")
    mapping = _expand_map(tuple(pos), len(dst))
    out = 0
    for k, j in enumerate(mapping):
        if (tt >> j) & 1:
            out |= 1 << k
    return out


@lru_cache(maxsize=4096)
def _expand_map(pos: Tuple[int, ...], nd: int) -> Tuple[int, ...]:
    """dst-minterm -> src-minterm index map for a position pattern."""
    out = []
    for k in range(1 << nd):
        j = 0
        for i, p in enumerate(pos):
            j |= ((k >> p) & 1) << i
        out.append(j)
    return tuple(out)


def expand_map16(pos: Tuple[int, ...]) -> Tuple[int, ...]:
    """The 16-minterm source-index map for a position pattern.

    Same map as :func:`_expand_map` with ``nd=4``: entry ``k`` is the
    source minterm feeding destination minterm ``k``.  For a
    destination space of ``nd < 4`` variables the entries ``k >= 2**nd``
    are replication padding — masking the result with ``full_mask(nd)``
    recovers exactly ``expand``'s answer, which is what lets one fixed
    16-wide kernel serve every cut width (see :func:`batch_expand`).
    """
    return _expand_map(pos, 4)


def batch_expand(tts, mappings):
    """Vectorized :func:`expand` over many (table, mapping) pairs.

    ``tts`` is an integer array of N source tables and ``mappings`` an
    ``(N, 16)`` array of source minterm indices (rows from
    :func:`expand_map16`).  Returns the N expanded 16-bit tables; for a
    destination width ``nd < 4`` the caller masks with
    ``full_mask(nd)``.  :func:`lift_bytes` is built to match (the cut
    manager's merge kernel gathers from its byte tables).
    """
    tts = np.asarray(tts, dtype=np.uint32)
    mappings = np.asarray(mappings, dtype=np.uint8)
    bits = (tts[:, None] >> mappings) & np.uint32(1)
    pow2 = np.uint32(1) << np.arange(16, dtype=np.uint32)
    return (bits * pow2).sum(axis=1, dtype=np.uint32)


@lru_cache(maxsize=1)
def lift_bytes():
    """The truth-table lift as byte tables: a flat ``uint16`` array of
    ``512 * 16`` entries (16 KB), row ``r`` at ``r * 16``.  Lifting
    ``tt`` onto the set bit positions ``m`` of the 4-variable space is
    an OR over the source minterms set in ``tt``, so it is the OR of
    one row per byte of ``tt``: entry ``(tt & 255) * 16 + m`` (rows
    0-255, the low byte) and entry ``(256 + (tt >> 8)) * 16 + m`` (rows
    256-511, the high byte).  Source and union leaf rows both ascend,
    so the mask of union positions holding a source leaf fixes the
    whole position pattern, and the lift ``& full_mask(nd)`` equals
    ``expand(tt, src, dst)`` (as for :func:`batch_expand`).  Built on
    first use."""
    byte = np.arange(256, dtype=np.uint16)
    halves = np.zeros((2, 256, 16), dtype=np.uint16)
    for m in range(16):
        mapping = expand_map16(tuple(p for p in range(4) if (m >> p) & 1))
        for k, j in enumerate(mapping):
            halves[j >> 3, :, m] |= ((byte >> (j & 7)) & 1) << k
    return halves.reshape(-1)


#: Cut-width -> block-replication multiplier lifting an ``n``-variable
#: table onto the identity positions of the 4-variable space: the
#: ``expand`` map for ``src = (0..n-1), dst = (0, 1, 2, 3)`` reads
#: source minterm ``k & (2**n - 1)`` for destination minterm ``k``,
#: which is exactly a multiply by the repeating-block constant.
_TT4_LIFT_MULT = np.array([0xFFFF, 0x5555, 0x1111, 0x0101, 0x0001],
                          dtype=np.uint32)


def batch_lift_tt4(tts, sizes):
    """Vectorized :func:`~repro.rewrite.base.cut_tt4`: lift many cut
    functions (``sizes[i]``-variable tables, 0..4 vars) into the full
    4-variable space in one numpy call."""
    return np.asarray(tts, dtype=np.uint32) * _TT4_LIFT_MULT.take(sizes)


#: Pad of a side-tagged union row (:func:`tag_leaves`): above every
#: tag, so sorting a row pushes the padding to the right and the valid
#: prefix stays in ascending leaf order.  Leaf rows themselves are
#: padded with var 0 (the constant, never a cut leaf).
UNION_PAD = 1 << 62


def tag_leaves(leaves, side):
    """Side-tagged leaf rows, the input of :func:`batch_union_leaves`:
    ``leaf << 2 | side`` (``side`` 1 or 2, or a column of them, one per
    row) for every leaf of the var-0-padded ``leaves`` (any integer
    dtype; the tags are int64); pads become :data:`UNION_PAD`."""
    return np.where(leaves != 0, np.left_shift(leaves, 2, dtype=np.int64) | side,
                    UNION_PAD)


def batch_union_leaves(u):
    """Vectorized leaf-set union over many cut pairs, side-tagged.

    Row ``p`` of the ``(P, 8)`` array ``u`` is a pair's two ``(4,)``
    rows of :func:`tag_leaves` (side 1, then side 2) over ascending
    leaf ids; it is sorted in place.  Returns ``(rows, sizes)``:
    ``rows`` is the ``(P, 8)`` sorted, :data:`UNION_PAD`-padded union
    of each pair, every entry ``leaf << 2 | mask`` with ``mask`` the
    sides holding the leaf (1, 2 or 3), and ``sizes`` its per-row
    valid-leaf count — the batch form of ``sorted(set(c0.leaves) |
    set(c1.leaves))`` in the cut manager's merge loop, with each
    side's lane membership in the low two bits.
    """
    u.sort(axis=1)
    # Each leaf occurs at most once per side, so a shared leaf is an
    # adjacent (tag 1, tag 2) pair — the only neighbours one apart: fold
    # the right tag into the left entry, overwrite the right one with
    # the pad, re-sort.  The neighbour test runs over the flat array,
    # its row-crossing pairs masked out.
    flat = u.reshape(-1)
    dup = np.zeros(len(flat), dtype=bool)
    dup[:-1] = (flat[1:] - flat[:-1]) == 1
    dup[u.shape[1] - 1::u.shape[1]] = False
    flat |= dup * 3
    np.putmask(flat[1:], dup[:-1], UNION_PAD)
    u.sort(axis=1)
    # Valid-entry count per row: a row's 8 flags, one byte each, as one
    # 64-bit word.
    sizes = np.bitwise_count((u < UNION_PAD).view(np.uint64))
    return u, sizes.reshape(-1).astype(np.int64)


def batch_cut_signs(leaves):
    """Vectorized ``Cut.sign`` over var-0-padded leaf rows: the 64-bit
    occupancy signature ``OR(1 << (leaf & 63))`` per row."""
    bits = np.where(
        leaves != 0,
        np.uint64(1) << (leaves.astype(np.uint64) & np.uint64(63)),
        np.uint64(0),
    )
    return np.bitwise_or.reduce(bits, axis=1)


def shrink_to_support(tt: int, n: int) -> Tuple[int, Tuple[int, ...]]:
    """Drop unsupported variables; returns (table, kept variable indices)."""
    sup = support(tt, n)
    if len(sup) == n:
        return tt, sup
    out = 0
    for k in range(1 << len(sup)):
        j = 0
        for i, v in enumerate(sup):
            j |= ((k >> i) & 1) << v
        if (tt >> j) & 1:
            out |= 1 << k
    return out, sup


def eval_tt(tt: int, assignment: List[int]) -> int:
    """Evaluate under a 0/1 assignment (assignment[i] = value of var i)."""
    idx = 0
    for i, v in enumerate(assignment):
        idx |= (v & 1) << i
    return (tt >> idx) & 1
