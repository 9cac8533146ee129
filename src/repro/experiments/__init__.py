"""Experiment harness: engine registry, checked runs, table formatting."""

from .runner import (
    DEFAULT_WORKERS,
    ENGINE_FACTORIES,
    GPU_WORKERS,
    ExperimentRow,
    make_engine,
    run_experiment,
    run_matrix,
)
from .tables import (
    comparison_table,
    format_table,
    geomean,
    speedup_summary,
    table1_rows,
)
from .timing import UNITS_PER_SECOND, to_seconds

__all__ = [
    "DEFAULT_WORKERS",
    "ENGINE_FACTORIES",
    "GPU_WORKERS",
    "ExperimentRow",
    "make_engine",
    "run_experiment",
    "run_matrix",
    "comparison_table",
    "format_table",
    "geomean",
    "speedup_summary",
    "table1_rows",
    "UNITS_PER_SECOND",
    "to_seconds",
]
