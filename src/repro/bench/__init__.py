"""Benchmark circuit generators and suites."""

from .generators import (
    div_like,
    double,
    hyp_like,
    log2_like,
    mem_ctrl_like,
    mtm_like,
    mult_like,
    sin_like,
    sqrt_like,
    square_like,
    voter_like,
)
from .suite import (
    epfl_names,
    make_epfl,
    make_mtm,
    mtm_names,
    table1_suite,
)

__all__ = [
    "div_like",
    "double",
    "hyp_like",
    "log2_like",
    "mem_ctrl_like",
    "mtm_like",
    "mult_like",
    "sin_like",
    "sqrt_like",
    "square_like",
    "voter_like",
    "epfl_names",
    "make_epfl",
    "make_mtm",
    "mtm_names",
    "table1_suite",
]
