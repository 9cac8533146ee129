"""Replacement-structure library (the NST and its generators).

The generators (:mod:`repro.library.synthesis`) are not imported here:
no run calls them, and ``python -m repro.library.synthesis`` rewrites
the packaged table from them.
"""

from .isop import Cube, cover_tt, cube_tt, isop
from .factor import factor_to_structure
from .nst import DEFAULT_MAX_STRUCTS, StructureLibrary, get_library
from .structures import (
    FIRST_INTERNAL_VAR,
    NUM_INPUTS,
    Structure,
    StructureBuilder,
    input_lit,
)

__all__ = [
    "Cube",
    "cover_tt",
    "cube_tt",
    "isop",
    "factor_to_structure",
    "DEFAULT_MAX_STRUCTS",
    "StructureLibrary",
    "get_library",
    "FIRST_INTERNAL_VAR",
    "NUM_INPUTS",
    "Structure",
    "StructureBuilder",
    "input_lit",
]
