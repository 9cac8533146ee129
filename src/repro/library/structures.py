"""Replacement-structure DAGs.

A :class:`Structure` is a small standalone AIG over four canonical
inputs — the precomputed subgraphs that ABC's rewriting retrieves from
its NPN-structural table.  Encoding mirrors the main AIG: literal =
``2*var + complement`` with var 0 the constant, vars 1..4 the canonical
inputs x0..x3, and var ``5+k`` the k-th internal AND node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import LibraryError
from ..npn.truth import MASK4, VAR4

NUM_INPUTS = 4
FIRST_INTERNAL_VAR = 1 + NUM_INPUTS


def input_lit(i: int, compl: bool = False) -> int:
    """Literal of canonical input ``i`` (0..3)."""
    if not 0 <= i < NUM_INPUTS:
        raise LibraryError(f"canonical input {i} out of range")
    return ((i + 1) << 1) | int(compl)


@dataclass(frozen=True)
class Structure:
    """An immutable replacement subgraph."""

    nodes: Tuple[Tuple[int, int], ...]
    out: int

    @property
    def num_ands(self) -> int:
        return len(self.nodes)

    @property
    def depth(self) -> int:
        levels = [0] * (FIRST_INTERNAL_VAR + len(self.nodes))
        for k, (l0, l1) in enumerate(self.nodes):
            levels[FIRST_INTERNAL_VAR + k] = 1 + max(levels[l0 >> 1], levels[l1 >> 1])
        return levels[self.out >> 1]

    def validate(self) -> None:
        """Check topological literal references; raises on violation."""
        for k, (l0, l1) in enumerate(self.nodes):
            limit = FIRST_INTERNAL_VAR + k
            for lit in (l0, l1):
                if lit < 0 or (lit >> 1) >= limit:
                    raise LibraryError(
                        f"node {k}: literal {lit} references a later node"
                    )
        if self.out < 0 or (self.out >> 1) >= FIRST_INTERNAL_VAR + len(self.nodes):
            raise LibraryError(f"output literal {self.out} out of range")

    def eval_tt(self, input_tts: Optional[Tuple[int, int, int, int]] = None) -> int:
        """Truth table of the structure (16-bit, canonical inputs)."""
        tts = input_tts if input_tts is not None else VAR4
        values = [0, tts[0], tts[1], tts[2], tts[3]]
        for l0, l1 in self.nodes:
            v0 = values[l0 >> 1] ^ (MASK4 if l0 & 1 else 0)
            v1 = values[l1 >> 1] ^ (MASK4 if l1 & 1 else 0)
            values.append(v0 & v1)
        return values[self.out >> 1] ^ (MASK4 if self.out & 1 else 0)


class StructureBuilder:
    """Strashed builder for :class:`Structure` objects.

    Mirrors the main AIG's trivial rules and structural hashing so that
    generated structures are automatically compacted.
    """

    def __init__(self) -> None:
        self._nodes: List[Tuple[int, int]] = []
        self._strash: Dict[Tuple[int, int], int] = {}

    def input(self, i: int, compl: bool = False) -> int:
        return input_lit(i, compl)

    @property
    def const0(self) -> int:
        return 0

    @property
    def const1(self) -> int:
        return 1

    def and_(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        if a == b:
            return a
        if a == (b ^ 1):
            return 0
        if a > b:
            a, b = b, a
        hit = self._strash.get((a, b))
        if hit is not None:
            return hit << 1
        var = FIRST_INTERNAL_VAR + len(self._nodes)
        self._nodes.append((a, b))
        self._strash[(a, b)] = var
        return var << 1

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def mux_(self, sel: int, t: int, e: int) -> int:
        return self.or_(self.and_(sel, t), self.and_(sel ^ 1, e))

    def import_structure(self, other: "Structure") -> int:
        """Copy another structure's nodes into this builder (with
        strashing); returns the imported output literal."""
        mapping = list(range(FIRST_INTERNAL_VAR))  # const + inputs map to selves
        for l0, l1 in other.nodes:
            m0 = (mapping[l0 >> 1] << 1) ^ (l0 & 1)
            m1 = (mapping[l1 >> 1] << 1) ^ (l1 & 1)
            mapping.append(self.and_(m0, m1) >> 1)
        # The appended mapping entries are vars; out maps through them.
        out_var = mapping[other.out >> 1]
        return (out_var << 1) ^ (other.out & 1)

    def finish(self, out: int) -> Structure:
        """Freeze into a Structure computing ``out`` (dead nodes kept —
        callers compare by node count after garbage collection)."""
        structure = Structure(nodes=tuple(self._nodes), out=out)
        return _garbage_collect(structure)


def _garbage_collect(structure: Structure) -> Structure:
    """Drop internal nodes not reachable from the output."""
    needed = set()
    stack = [structure.out >> 1]
    while stack:
        v = stack.pop()
        if v < FIRST_INTERNAL_VAR or v in needed:
            continue
        needed.add(v)
        l0, l1 = structure.nodes[v - FIRST_INTERNAL_VAR]
        stack.append(l0 >> 1)
        stack.append(l1 >> 1)
    if len(needed) == len(structure.nodes):
        return structure
    order = sorted(needed)
    remap = {v: FIRST_INTERNAL_VAR + i for i, v in enumerate(order)}
    new_nodes = []
    for v in order:
        l0, l1 = structure.nodes[v - FIRST_INTERNAL_VAR]
        n0 = (remap.get(l0 >> 1, l0 >> 1) << 1) | (l0 & 1)
        n1 = (remap.get(l1 >> 1, l1 >> 1) << 1) | (l1 & 1)
        new_nodes.append((n0, n1))
    out_var = structure.out >> 1
    new_out = (remap.get(out_var, out_var) << 1) | (structure.out & 1)
    return Structure(nodes=tuple(new_nodes), out=new_out)
