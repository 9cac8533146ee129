"""Replacement-structure library (the NST and its generators).

Re-exported lazily (:mod:`repro._lazy`): a run reads the packaged
table (:mod:`repro.library.nst`) and never calls the ISOP or the
factoring the table was built with.  The generators
(:mod:`repro.library.synthesis`) are not re-exported at all:
``python -m repro.library.synthesis`` rewrites the packaged table from
them.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "isop": ("Cube", "cover_tt", "cube_tt", "isop"),
    "factor": ("factor_to_structure",),
    "nst": ("DEFAULT_MAX_STRUCTS", "StructureLibrary", "get_library"),
    "structures": ("FIRST_INTERNAL_VAR", "NUM_INPUTS", "Structure",
                   "StructureBuilder", "input_lit"),
})
