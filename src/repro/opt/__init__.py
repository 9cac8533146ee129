"""Large-cut refactoring, the second operator on DACPara's skeleton."""

from .refactor import (
    DEFAULT_MAX_LEAVES,
    ParallelRefactor,
    RefactorCandidate,
    RefactorEngine,
    build_factored,
    cone_truth_table,
    reconvergence_cut,
)

__all__ = [
    "DEFAULT_MAX_LEAVES",
    "ParallelRefactor",
    "RefactorCandidate",
    "RefactorEngine",
    "build_factored",
    "cone_truth_table",
    "reconvergence_cut",
]
