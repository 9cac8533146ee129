"""Structural invariant checker for :class:`~repro.aig.graph.Aig`.

Every mutation path in the package (rewriting engines, the replace
cascade, generators) is validated against these invariants in the test
suite; ``check(aig)`` raises :class:`~repro.errors.AigError` with a
precise message on the first violation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import AigError
from .graph import Aig, strash_pair
from .literals import lit_not, lit_var


def check(aig: Aig) -> None:
    """Validate all structural invariants; raises on violation."""
    ref_count: Dict[int, int] = {}
    readers: Dict[int, List[int]] = {}  # ascending: filled in var order
    num_ands = 0
    seen_pairs: Dict[Tuple[int, int], int] = {}

    for var in range(aig.size):
        if aig.is_dead(var):
            continue
        if aig.is_and(var):
            num_ands += 1
            f0, f1 = aig.fanin0(var), aig.fanin1(var)
            if f0 >= f1:
                raise AigError(f"node {var}: fanins not ordered ({f0}, {f1})")
            if f0 == lit_not(f1):
                raise AigError(f"node {var}: fanins are complements")
            if lit_var(f0) == 0 or lit_var(f1) == 0:
                raise AigError(f"node {var}: constant fanin not folded")
            for fl in (f0, f1):
                fv = lit_var(fl)
                if aig.is_dead(fv):
                    raise AigError(f"node {var}: dead fanin {fv}")
                ref_count[fv] = ref_count.get(fv, 0) + 1
                readers.setdefault(fv, []).append(var)
            expected = max(aig.level(lit_var(f0)), aig.level(lit_var(f1))) + 1
            if aig.level(var) != expected:
                raise AigError(
                    f"node {var}: level {aig.level(var)} != expected {expected}"
                )
            pair = (f0, f1)
            if pair in seen_pairs:
                raise AigError(
                    f"strash violation: nodes {seen_pairs[pair]} and {var} "
                    f"share fanins {pair}"
                )
            seen_pairs[pair] = var
            if aig.has_and(f0, f1) != 2 * var:
                raise AigError(f"node {var}: missing/incorrect strash entry")
        elif aig.is_pi(var) or aig.is_const(var):
            if aig.level(var) != 0:
                raise AigError(f"node {var}: PI/const with level != 0")

    if num_ands != aig.num_ands:
        raise AigError(f"num_ands counter {aig.num_ands} != actual {num_ands}")
    for key, var in aig._strash.items():
        if not aig.is_and(var) or strash_pair(key) != aig.fanins(var):
            raise AigError(f"stale strash entry {strash_pair(key)} -> node {var}")

    for idx, lit in enumerate(aig.pos):
        var = lit_var(lit)
        if aig.is_dead(var):
            raise AigError(f"PO {idx}: references dead node {var}")
        ref_count[var] = ref_count.get(var, 0) + 1
        if idx not in aig.po_fanouts(var):
            raise AigError(f"PO {idx}: missing po_refs entry on node {var}")

    for var in range(aig.size):
        if aig.is_dead(var):
            continue
        expected_refs = ref_count.get(var, 0)
        if aig.nref(var) != expected_refs:
            raise AigError(
                f"node {var}: nref {aig.nref(var)} != actual {expected_refs}"
            )
        # As multisets: a list can hold a duplicate a set could not.
        fanouts = sorted(aig.fanouts(var))
        if fanouts != readers.get(var, []):
            raise AigError(
                f"node {var}: fanouts {fanouts} != actual {readers.get(var, [])}"
            )
