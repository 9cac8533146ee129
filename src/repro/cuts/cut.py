"""Cut representation.

A cut of node ``n`` is a set of *leaves* such that every PI-to-``n``
path passes through a leaf; the cut function is ``n`` expressed over
the leaves.  Cuts here carry the **stamps** of their leaves at
enumeration time: DACPara's replacement stage decides whether a stored
cut is still usable by comparing stamps — a leaf that was deleted and
whose id was reused (the paper's Fig. 3) is alive but carries a new
stamp, which is exactly the case that must be caught.

Functional validity invariant (the paper's Theorem 1 together with
Theorems 1–2 of NovelRewrite [16]): once a cut/truth-table pair is
computed on a consistent graph, it remains a correct functional
description of the node **as long as every leaf is stamp-alive**, no
matter what equivalence-preserving replacements happen elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from ..aig import Aig


@dataclass(frozen=True)
class Cut:
    """An immutable cut with its function and leaf stamps."""

    leaves: Tuple[int, ...]       # sorted variable ids
    tt: int                       # truth table over len(leaves) vars
    leaf_stamps: Tuple[int, ...]  # aig.life_stamp(leaf) at enumeration time

    def __post_init__(self) -> None:
        assert len(self.leaves) == len(self.leaf_stamps)

    @property
    def size(self) -> int:
        return len(self.leaves)

    @cached_property
    def sign(self) -> int:
        """64-bit subset signature for fast dominance pre-checks.

        Cached: the dominance filter reads it O(n²) times per merge,
        and ``cached_property`` writes straight into ``__dict__``, so
        it composes with ``frozen=True``.
        """
        s = 0
        for leaf in self.leaves:
            s |= 1 << (leaf & 63)
        return s

    def dominates(self, other: "Cut") -> bool:
        """True when this cut's leaves are a subset of the other's."""
        return set(self.leaves) <= set(other.leaves)


def trivial_cut(aig: Aig, var: int) -> Cut:
    """The cut consisting of the node itself (function = x0)."""
    return Cut(leaves=(var,), tt=0b10, leaf_stamps=(aig.life_stamp(var),))


def cut_is_stamp_alive(aig: Aig, cut: Cut) -> bool:
    """All leaves alive in the same incarnation (the validity
    condition).  In-place restructuring of a leaf does *not* invalidate
    the cut — equivalence-preserving replacements keep every surviving
    node's global function, so the cut/truth-table relation holds as
    long as each leaf is the node it was (life stamp unchanged)."""
    for leaf, stamp in zip(cut.leaves, cut.leaf_stamps):
        if aig.is_dead(leaf) or aig.life_stamp(leaf) != stamp:
            return False
    return True


def cut_leaves_alive(aig: Aig, cut: Cut) -> bool:
    """All leaves alive (ignoring stamps) — the weaker condition that
    distinguishes "deleted" from "deleted and reused" in Section 4.4."""
    return all(not aig.is_dead(leaf) for leaf in cut.leaves)
