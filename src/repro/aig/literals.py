"""Literal encoding for AIG edges.

A literal packs a variable id and a complement bit: ``lit = 2*var + c``.
Variable 0 is the constant node, so ``lit 0`` is constant false and
``lit 1`` is constant true.  This is the standard AIGER convention.
"""

from __future__ import annotations

CONST_VAR = 0
LIT_FALSE = 0
LIT_TRUE = 1


def make_lit(var: int, compl: bool = False) -> int:
    """Build a literal from a variable id and a complement flag."""
    return (var << 1) | int(compl)


def lit_var(lit: int) -> int:
    """Variable id of a literal."""
    return lit >> 1


def lit_compl(lit: int) -> bool:
    """True if the literal is complemented."""
    return bool(lit & 1)


def lit_not(lit: int) -> int:
    """Complement a literal."""
    return lit ^ 1
