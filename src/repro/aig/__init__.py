"""AIG substrate: graph, literals, traversal, MFFC, simulation, I/O.

Re-exported lazily (:mod:`repro._lazy`): the rewriter loads the graph,
literals, traversal and MFFC; I/O, simulation, the checker and the
process pool's snapshots load when first read.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "graph": ("Aig", "KIND_AND", "KIND_CONST", "KIND_DEAD", "KIND_PI"),
    "literals": ("CONST_VAR", "LIT_FALSE", "LIT_TRUE", "lit_compl", "lit_not",
                 "lit_var", "make_lit"),
    "mffc": ("mffc", "mffc_size"),
    "traversal": ("cone_cover", "is_in_tfi", "related", "tfi", "tfo",
                  "topo_order"),
    "check": ("check",),
    "simulate": ("exhaustive_signatures", "random_patterns",
                 "random_simulation", "simulate", "simulate_pattern"),
    "io_aiger": ("read_aiger", "write_aag", "write_aig"),
    "snapshot": ("AigSnapshot", "SnapshotDelta"),
})
