"""Structure generators: candidate replacement subgraphs per function.

ABC ships a precomputed library of 4-input subgraphs; this module
rebuilds an equivalent capability from three generators (the DESIGN.md
substitution):

* bounded forward **enumeration** — exact minimal structures for every
  function reachable within a small AND budget;
* **ISOP + algebraic factoring** — both output phases;
* **Shannon/MUX decomposition** — one candidate per top variable.

All candidates are verified against the requested truth table before
they leave this module.  Nothing calls them at run time: they generate
the packaged NST (:data:`~repro.library.nst.TABLE_PATH`), which
``python -m repro.library.synthesis`` rewrites from
:func:`render_table`, and a tier-1 test holds the two equal.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..errors import LibraryError
from ..npn.classes import all_classes
from ..npn.truth import MASK4, cofactor, support, var_table
from .factor import factor_to_structure
from .isop import isop
from .nst import DEFAULT_MAX_STRUCTS, TABLE_PATH
from .structures import Structure, StructureBuilder

ENUM_BUDGET = 4  # max AND nodes explored by the forward enumeration


@lru_cache(maxsize=1)
def enumeration_table(budget: int = ENUM_BUDGET) -> Dict[int, Structure]:
    """Minimal structures for all functions reachable within ``budget``
    AND nodes, by forward dynamic programming on (cost, function).

    Combining two structures concatenates their DAGs under strashing,
    so shared subexpressions are priced correctly.
    """
    base: Dict[int, Structure] = {}

    def consider(tt: int, structure: Structure) -> None:
        old = base.get(tt)
        if old is None or structure.num_ands < old.num_ands or (
            structure.num_ands == old.num_ands and structure.depth < old.depth
        ):
            base[tt] = structure

    consider(0, Structure(nodes=(), out=0))
    consider(MASK4, Structure(nodes=(), out=1))
    for i in range(4):
        x = var_table(i, 4)
        consider(x, Structure(nodes=(), out=(i + 1) << 1))
        consider(x ^ MASK4, Structure(nodes=(), out=((i + 1) << 1) | 1))

    by_cost: Dict[int, List[Tuple[int, Structure]]] = {
        0: [(tt, s) for tt, s in base.items()]
    }
    for cost in range(1, budget + 1):
        fresh: List[Tuple[int, Structure]] = []
        for ca in range(cost):
            cb = cost - 1 - ca
            if cb < ca:
                break
            for tta, sa in by_cost.get(ca, ()):
                for ttb, sb in by_cost.get(cb, ()):
                    for pa in (0, 1):
                        for pb in (0, 1):
                            ea = tta ^ (MASK4 if pa else 0)
                            eb = ttb ^ (MASK4 if pb else 0)
                            tt = ea & eb
                            existing = base.get(tt)
                            if existing is not None and existing.num_ands < cost:
                                continue
                            builder = StructureBuilder()
                            la = builder.import_structure(sa) ^ pa
                            lb = builder.import_structure(sb) ^ pb
                            out = builder.and_(la, lb)
                            st = builder.finish(out)
                            if tt not in base or st.num_ands < base[tt].num_ands:
                                base[tt] = st
                                if st.num_ands == cost:
                                    fresh.append((tt, st))
        by_cost[cost] = fresh
    return dict(base)


def candidates(tt: int, max_candidates: int = 8) -> List[Structure]:
    """Candidate structures computing ``tt`` (16-bit table), cheapest
    first.  Raises :class:`LibraryError` if none can be built (cannot
    happen for a completely-specified 4-input function)."""
    tt &= MASK4
    found: List[Structure] = []

    enum_hit = enumeration_table().get(tt)
    if enum_hit is not None:
        found.append(enum_hit)

    sup = support(tt, 4)
    if sup:
        for out_compl in (False, True):
            target = tt ^ (MASK4 if out_compl else 0)
            found.append(factor_to_structure(isop(target, 4), out_compl=out_compl))
        for var in sup:
            found.append(_shannon_structure(tt, var))
    elif not found:  # constant without an enumeration hit (never happens)
        found.append(Structure(nodes=(), out=1 if tt else 0))

    verified: List[Structure] = []
    seen = set()
    for st in found:
        key = (st.nodes, st.out)
        if key in seen:
            continue
        seen.add(key)
        if st.eval_tt() != tt:
            raise LibraryError(
                f"generated structure computes {st.eval_tt():04x}, want {tt:04x}"
            )
        verified.append(st)
    verified.sort(key=lambda s: (s.num_ands, s.depth, s.nodes))
    return verified[:max_candidates]


def _shannon_structure(tt: int, var: int) -> Structure:
    """MUX(x_var, f1, f0) with recursively decomposed cofactors."""
    builder = StructureBuilder()
    memo: Dict[int, int] = {}

    def emit(f: int) -> int:
        hit = memo.get(f)
        if hit is not None:
            return hit
        if f == 0:
            lit = builder.const0
        elif f == MASK4:
            lit = builder.const1
        else:
            sup = support(f, 4)
            match = _as_literal(f, sup)
            if match is not None:
                lit = builder.input(match[0], compl=match[1])
            else:
                v = sup[-1]
                f0, f1 = cofactor(f, v, 0, 4), cofactor(f, v, 1, 4)
                lit = builder.mux_(builder.input(v), emit(f1), emit(f0))
        memo[f] = lit
        return lit

    return builder.finish(emit(tt))


def _as_literal(tt: int, sup: Tuple[int, ...]) -> Optional[Tuple[int, bool]]:
    if len(sup) != 1:
        return None
    x = var_table(sup[0], 4)
    if tt == x:
        return sup[0], False
    if tt == (x ^ MASK4):
        return sup[0], True
    return None


def render_table() -> str:
    """The NST text (:func:`~repro.library.nst.load_table`'s format):
    ``candidates(rep, 8)`` for every canonical class, one line each."""
    lines = []
    for rep in all_classes():
        entries = [[st.out, *(lit for pair in st.nodes for lit in pair)]
                   for st in candidates(rep, DEFAULT_MAX_STRUCTS)]
        lines.append(f'"{rep:#06x}": {json.dumps(entries, separators=(",", ":"))}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    TABLE_PATH.write_text(render_table())
    print(f"wrote {TABLE_PATH}")
