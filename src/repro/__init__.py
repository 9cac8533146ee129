"""DACPara reproduction: divide-and-conquer parallel AIG rewriting.

Public API quick tour::

    from repro import Aig, DACParaRewriter, dacpara_config, check_equivalence

    aig = ...                                   # build or read_aiger(...)
    result = DACParaRewriter(dacpara_config(workers=40)).run(aig)
    print(result.summary())

Subpackages:

* :mod:`repro.aig` — the And-Inverter Graph substrate
* :mod:`repro.cuts` — k-feasible cut enumeration
* :mod:`repro.npn` — NPN canonicalization (222 classes)
* :mod:`repro.library` — replacement-structure library (NST)
* :mod:`repro.rewrite` — serial / ICCAD'18 / GPU-model engines
* :mod:`repro.core` — the DACPara engine itself
* :mod:`repro.galois` — the Galois-like parallel runtime
* :mod:`repro.sat` — CDCL SAT solver and equivalence checking
* :mod:`repro.bench` — benchmark circuit generators
* :mod:`repro.experiments` — the table/figure reproduction harness

The names here, and those of the subpackages a run uses only in part
(``aig``, ``bench``, ``galois``, ``library``, ``obs``, ``rewrite``),
are re-exported lazily (:mod:`repro._lazy`): a submodule is imported
when one of its names is first read, so a run imports only what it
runs.
"""

from ._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(__name__, {
    "aig": ("Aig", "check", "lit_not", "lit_var", "read_aiger", "write_aag",
            "write_aig"),
    "config": ("RewriteConfig", "abc_rewrite_config", "dacpara_config",
               "dacpara_p1_config", "dacpara_p2_config", "gpu_config",
               "iccad18_config"),
    "core": ("DACParaRewriter",),
    "obs": ("NULL_OBSERVER", "Observer", "TracingObserver"),
    "rewrite": ("LockFusedRewriter", "RewriteResult", "SerialRewriter",
                "StaticRewriter"),
    "sat": ("check_equivalence",),
    # Reachable as attributes, re-exporting nothing here.
    "bench": (), "cuts": (), "errors": (), "experiments": (), "galois": (),
    "library": (), "npn": (), "opt": (),
})
__all__.append("__version__")
