"""Exhaustive NPN canonicalization for 4-input functions.

Two Boolean functions are NPN-equivalent when one can be obtained from
the other by negating/permuting inputs and possibly negating the
output.  For 4 inputs there are ``2^4 * 4! * 2 = 768`` transforms; the
canonical representative of a class is the minimum 16-bit table over
all of them.  All 65536 functions fall into exactly 222 classes
(asserted in the tests, matching the paper's Section 3).

Two implementations coexist:

* :func:`npn_canon_exhaustive` — the per-call search over all 768
  transforms (vectorized over the transforms, memoized per function).
  Kept as the reference implementation and the benchmark baseline.
* :func:`npn_canon` — a lazily-built, module-level 65 536-entry lookup
  table: one ``uint16`` canonical representative plus one packed
  witness (the transform's row index, 0..767) per function.  Building
  the table enumerates each of the 222 classes once from its minimum,
  one matrix-vector product per class (~7 ms); afterwards
  canonicalization is two array reads.
  Both implementations break ties identically (first transform in row
  order achieving the minimum), so they agree bit-for-bit on canonical
  table *and* witness.

The transform that witnesses the canonicalization is kept so library
structures (expressed over canonical inputs) can be mapped back onto
concrete cut leaves:

    canon(y0..y3) = f(x0..x3) ^ out_neg,  with  x[perm[i]] = y_i ^ neg_i

hence to realize ``f`` from a structure computing ``canon``:
feed structure input ``i`` with leaf ``perm[i]`` complemented by bit
``i`` of ``neg_mask``, and complement the structure output by
``out_neg``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .truth import MASK4


@dataclass(frozen=True)
class NpnTransform:
    """A witness transform mapping a function onto its canonical form."""

    perm: Tuple[int, int, int, int]
    neg_mask: int
    out_neg: bool

    def leaf_assignment(self) -> List[Tuple[int, bool]]:
        """For each canonical structure input ``i``: (leaf position,
        complemented?) — the instantiation recipe described above."""
        return [
            (self.perm[i], bool((self.neg_mask >> i) & 1)) for i in range(4)
        ]


def _build_transforms() -> Tuple[List[NpnTransform], np.ndarray, np.ndarray]:
    """All 768 transforms with their minterm source-index matrices.

    Rows run over ``perm`` (``itertools.permutations`` order), then
    ``neg_mask`` 0..15, then ``out_neg``; row ``r`` maps minterm ``k``
    to source minterm ``sum_i (k_i ^ neg_i) << perm[i]``.
    """
    perms = list(itertools.permutations(range(4)))
    transforms = [
        NpnTransform(perm, neg_mask, out_neg)
        for perm in perms for neg_mask in range(16)
        for out_neg in (False, True)
    ]
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1  # (k or mask, i)
    flipped = bits[None, :, :] ^ bits[:, None, :]  # (neg_mask, k, i)
    sources = (flipped[None] << np.array(perms)[:, None, None, :]).sum(axis=3)
    matrices = np.repeat(sources.reshape(384, 16), 2, axis=0).astype(np.uint8)
    out_flags = np.tile(np.array([0, MASK4], dtype=np.uint16), 384)
    return transforms, matrices, out_flags


_TRANSFORMS, _MATRICES, _OUT_FLAGS = _build_transforms()
_POW2 = (np.uint32(1) << np.arange(16, dtype=np.uint32)).astype(np.uint32)
_canon_cache: Dict[int, Tuple[int, NpnTransform]] = {}

# The canon LUT: _LUT_CANON[f] = canonical table of f (uint32),
# _LUT_ROW[f] = row index of the first transform achieving it (uint16).
_LUT_CANON: Optional[np.ndarray] = None
_LUT_ROW: Optional[np.ndarray] = None


def apply_transform(tt: int, transform: NpnTransform) -> int:
    """Apply an NPN transform to a 16-bit truth table."""
    row = _TRANSFORMS.index(transform)
    return _apply_row(tt, row)


def _apply_row(tt: int, row: int) -> int:
    out = 0
    mat = _MATRICES[row]
    for k in range(16):
        out |= ((tt >> int(mat[k])) & 1) << k
    return out ^ int(_OUT_FLAGS[row])


def npn_canon_exhaustive(tt: int) -> Tuple[int, NpnTransform]:
    """Canonical representative of ``tt`` via the per-call 768-transform
    search, with the witness transform.

    Memoized: real circuits reuse a small set of cut functions heavily.
    This is the reference implementation; :func:`npn_canon` answers from
    the precomputed LUT instead.
    """
    tt &= MASK4
    hit = _canon_cache.get(tt)
    if hit is not None:
        return hit
    bits = ((tt >> np.arange(16, dtype=np.uint32)) & 1).astype(np.uint32)
    candidates = (bits[_MATRICES] * _POW2).sum(axis=1).astype(np.uint32)
    candidates ^= _OUT_FLAGS.astype(np.uint32)
    row = int(candidates.argmin())
    result = (int(candidates[row]), _TRANSFORMS[row])
    _canon_cache[tt] = result
    return result


# Functions the canon LUT build tests per step of its forward scan for
# the next unassigned function.
_SCAN_WINDOW = 512


def _build_canon_lut() -> Tuple[np.ndarray, np.ndarray]:
    """One orbit per NPN class, 222 in all, walking functions upward.

    The smallest function not yet assigned is the minimum of its class;
    its 768 pre-images ``T_r^-1(f)`` are the whole class and ``r`` is a
    witness row of each.  The stored witness is the *first* row whose
    pre-image the function is — the first achieving the minimum, the
    same tie-break as ``argmin`` in the exhaustive search.

    ``T_r(g)[k] = g[mat[r, k]] ^ out_r = f[k]`` scatters bit ``k`` of
    ``f`` to bit ``mat[r, k]`` of ``g``; each row of ``mat`` is a
    permutation, so all 768 pre-images are one matvec,
    ``(2 ** mat) @ bits(f) ^ out_flags``, exact in float64 below 2**16.
    The next minimum is found by scanning forward from ``f`` a window
    at a time.
    """
    unassigned = np.uint32(65536)
    canon = np.full(65536, unassigned, dtype=np.uint32)
    rows = np.zeros(65536, dtype=np.uint16)
    weights = np.ldexp(1.0, _MATRICES)
    shifts = np.arange(16, dtype=np.uint32)
    f = 0
    while f < 65536:
        bits = ((np.uint32(f) >> shifts) & np.uint32(1)).astype(np.float64)
        pre = (weights @ bits).astype(np.uint16) ^ _OUT_FLAGS
        members, first_row = np.unique(pre, return_index=True)
        canon[members] = f
        rows[members] = first_row
        while f < 65536:
            window = canon[f:f + _SCAN_WINDOW] == unassigned
            if window.any():
                f += int(window.argmax())
                break
            f += _SCAN_WINDOW
    return canon, rows


def ensure_canon_lut() -> Tuple[np.ndarray, np.ndarray]:
    """Build (once) and return the (canon, witness-row) LUT pair."""
    global _LUT_CANON, _LUT_ROW
    if _LUT_CANON is None:
        _LUT_CANON, _LUT_ROW = _build_canon_lut()
    return _LUT_CANON, _LUT_ROW


def canon_lut_ready() -> bool:
    """True when the LUT has already been built in this process."""
    return _LUT_CANON is not None


def npn_canon(tt: int) -> Tuple[int, NpnTransform]:
    """Canonical representative of ``tt`` and the witness transform,
    answered from the 65 536-entry LUT (built lazily on first use)."""
    canon, rows = (_LUT_CANON, _LUT_ROW)
    if canon is None:
        canon, rows = ensure_canon_lut()
    tt &= MASK4
    return int(canon[tt]), _TRANSFORMS[int(rows[tt])]


def npn_canon_batch(tts: np.ndarray) -> np.ndarray:
    """Canonical representatives for an array of truth tables (LUT
    gather; used by the batch evaluation kernels and the bench)."""
    canon, _ = ensure_canon_lut()
    return canon[np.asarray(tts, dtype=np.uint32) & np.uint32(MASK4)]


def npn_class_of(tt: int) -> int:
    """Just the canonical table (no witness)."""
    return npn_canon(tt)[0]


def canon_all_functions() -> np.ndarray:
    """Canonical representative of every 16-bit function (vectorized).

    Returns an array ``c`` with ``c[f] = canon(f)``; used to enumerate
    the 222 classes and to build class-population statistics.
    """
    return ensure_canon_lut()[0].copy()
