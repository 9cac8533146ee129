"""The NPN-structural table (NST).

Maps a canonical NPN representative to its candidate replacement
structures — the paper's *Structure Manager* plus *NPN Manager* fused
into one lookup.  Like ABC's, the table is precomputed: all 222 classes
ship in ``nst_table.json`` (regenerate with ``python -m
repro.library.synthesis``), and every entry is verified when a library
is built, so a corrupt table fails loudly instead of rewriting wrongly.

Structures are immutable, so DACPara's evaluation-stage "thread-local
copies of NPN equivalent structures" are satisfied by sharing: no
mutation can leak between concurrently evaluating activities.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Dict, Tuple

from ..errors import LibraryError
from .structures import Structure

#: Structures per class the table holds (``candidates(rep, 8)``).
DEFAULT_MAX_STRUCTS = 8

#: The packaged table: ``{"0x…": [[out, a0, b0, a1, b1, …], …]}`` — per
#: canonical class its structures' output literal and flattened AND
#: fanin literals, cheapest first.
TABLE_PATH = Path(__file__).with_name("nst_table.json")


def load_table(text: str) -> Dict[int, Tuple[Structure, ...]]:
    """Decode the NST text and verify every entry: each structure must
    reference only earlier nodes and compute the class it is filed
    under.  Raises :class:`LibraryError` naming the first bad class."""
    table: Dict[int, Tuple[Structure, ...]] = {}
    for key, entries in json.loads(text).items():
        rep = int(key, 16)
        structs = []
        for flat in entries:
            st = Structure(nodes=tuple(zip(flat[1::2], flat[2::2])), out=flat[0])
            try:
                st.validate()
            except LibraryError as exc:
                raise LibraryError(f"NST class {key}: {exc}") from None
            if st.eval_tt() != rep:
                raise LibraryError(
                    f"NST class {key}: structure computes {st.eval_tt():#06x}")
            structs.append(st)
        table[rep] = tuple(structs)
    return table


class StructureLibrary:
    """The packaged NST, loaded and verified at construction.

    Each class keeps its first ``max_structs`` structures (1..8); the
    generator sorts before it truncates, so that prefix is exactly
    ``candidates(rep, max_structs)``.
    """

    def __init__(self, max_structs: int = DEFAULT_MAX_STRUCTS):
        if not 1 <= max_structs <= DEFAULT_MAX_STRUCTS:
            raise LibraryError(
                f"max_structs must be 1..{DEFAULT_MAX_STRUCTS}, got {max_structs}")
        self.max_structs = max_structs
        self._table = {rep: structs[:max_structs] for rep, structs
                       in load_table(TABLE_PATH.read_text()).items()}

    def structures(self, canon_tt: int) -> Tuple[Structure, ...]:
        """Candidate structures for a canonical representative,
        cheapest (fewest ANDs, then shallowest) first — the same tuple
        on every call."""
        try:
            return self._table[canon_tt]
        except KeyError:
            raise LibraryError(
                f"{canon_tt:#06x} is not a canonical NPN representative"
            ) from None


@lru_cache(maxsize=4)
def get_library(max_structs: int = DEFAULT_MAX_STRUCTS) -> StructureLibrary:
    """Process-wide shared library instance."""
    return StructureLibrary(max_structs=max_structs)
