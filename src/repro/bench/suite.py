"""Benchmark suites mirroring the paper's Table 1.

The paper takes all EPFL Arithmetic + Random/Control circuits above
5000 nodes, applies ABC ``double`` ten times (1024 disjoint copies),
and adds the MtM set unchanged.  Here the same *families* are generated
at a tractable scale; ``scale`` multiplies the doubling count (and MtM
size) so the suite can be grown when more runtime is available.  Set
the ``REPRO_SCALE`` environment variable to override the default.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List

from ..aig import Aig
from . import generators as g

DEFAULT_SCALE = 1


def _scale() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_SCALE", DEFAULT_SCALE)))
    except ValueError:
        return DEFAULT_SCALE


# Base generators for the EPFL-like set, ordered as the paper's Table 1.
_EPFL_BASES: Dict[str, Callable[[], Aig]] = {
    "sin": lambda: g.sin_like(width=8),
    "voter": lambda: g.voter_like(num_inputs=101),
    "square": lambda: g.square_like(width=10),
    "sqrt": lambda: g.sqrt_like(width=10),
    "mult": lambda: g.mult_like(width=8),
    "log2": lambda: g.log2_like(width=16),
    "mem_ctrl": lambda: g.mem_ctrl_like(addr_bits=5, num_requests=12),
    "hyp": lambda: g.hyp_like(stages=14, width=10),
    "div": lambda: g.div_like(width=10),
}

# MtM-like circuits: name -> (num_pis, num_nodes, seed).
_MTM_PARAMS = {
    "sixteen": (24, 1600, 16),
    "twenty": (28, 2000, 20),
    "twentythree": (32, 2300, 23),
}


def epfl_names() -> List[str]:
    return list(_EPFL_BASES)


def mtm_names() -> List[str]:
    return list(_MTM_PARAMS)


def make_epfl(name: str, doubled: bool = True) -> Aig:
    """One EPFL-like benchmark, optionally size-doubled ``scale`` times
    (the paper's ``_10xd`` suffix corresponds to 10 doublings)."""
    if name not in _EPFL_BASES:
        raise KeyError(f"unknown EPFL-like benchmark {name!r}")
    base = _EPFL_BASES[name]()
    if not doubled:
        return base
    times = _scale()
    grown = g.double(base, times=times)
    grown.name = f"{name}_{times}xd"
    return grown


def make_mtm(name: str) -> Aig:
    """One MtM-like benchmark (never doubled, as in the paper)."""
    if name not in _MTM_PARAMS:
        raise KeyError(f"unknown MtM-like benchmark {name!r}")
    pis, nodes, seed = _MTM_PARAMS[name]
    scale = _scale()
    aig = g.mtm_like(
        num_pis=pis, num_nodes=nodes * scale, seed=seed, name=name
    )
    return aig


def table1_suite() -> List[Aig]:
    """All benchmarks of the paper's Table 1, in its row order."""
    circuits = [make_epfl(name) for name in epfl_names()]
    circuits += [make_mtm(name) for name in mtm_names()]
    return circuits
