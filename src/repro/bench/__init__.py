"""Benchmark circuit generators and suites.

Re-exported lazily (:mod:`repro._lazy`): importing one generator does
not load the suites.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "generators": ("div_like", "double", "hyp_like", "log2_like",
                   "mem_ctrl_like", "mtm_like", "mult_like", "sin_like",
                   "sqrt_like", "square_like", "voter_like"),
    "suite": ("epfl_names", "make_epfl", "make_mtm", "mtm_names",
              "table1_suite"),
})
