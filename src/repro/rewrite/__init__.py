"""Rewriting engines: serial reference, ICCAD'18 model, GPU model.

Re-exported lazily (:mod:`repro._lazy`): DACPara uses the candidate
primitives, the columnar kernel and the result record, never the three
baseline engines.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "base": ("Candidate", "Evaluation", "WorkMeter", "apply_candidate",
             "cut_tt4", "evaluate_candidate", "instantiate",
             "leaf_literals"),
    "columnar": ("find_best_candidate",),
    "result": ("RewriteResult",),
    "serial": ("SerialRewriter",),
    "lockfused": ("LockFusedRewriter",),
    "static_gpu": ("StaticRewriter",),
})
