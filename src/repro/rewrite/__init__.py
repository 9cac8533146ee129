"""Rewriting engines: serial reference, ICCAD'18 model, GPU model."""

from .base import (
    Candidate,
    Evaluation,
    WorkMeter,
    apply_candidate,
    cut_tt4,
    evaluate_candidate,
    instantiate,
    leaf_literals,
)
from .columnar import find_best_candidate
from .result import RewriteResult
from .serial import SerialRewriter
from .lockfused import LockFusedRewriter
from .static_gpu import StaticRewriter

__all__ = [
    "Candidate",
    "Evaluation",
    "WorkMeter",
    "apply_candidate",
    "cut_tt4",
    "evaluate_candidate",
    "find_best_candidate",
    "instantiate",
    "leaf_literals",
    "RewriteResult",
    "SerialRewriter",
    "LockFusedRewriter",
    "StaticRewriter",
]
