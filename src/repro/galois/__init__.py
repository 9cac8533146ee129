"""Galois-like parallel runtime: cautious operators, exclusive locks,
abort-and-retry on the simulated scheduler, and the process pool that
runs shards."""

import warnings

from .activity import Operator, Phase
from .procpool import ProcessExecutor, default_jobs
from .simsched import SimulatedExecutor
from .stats import ExecutionStats, StageStats

EXECUTOR_KINDS = ("simulated", "process")

__all__ = [
    "Operator",
    "Phase",
    "ProcessExecutor",
    "SimulatedExecutor",
    "ExecutionStats",
    "StageStats",
    "EXECUTOR_KINDS",
    "default_jobs",
    "warn_unused_jobs",
]


def make_executor(kind: str, workers: int, observer=None):
    """The level pipeline's executor: ``'simulated'`` or ``'process'``.
    The process executor runs level stages on its simulated scheduler;
    its pool only ever rewrites whole shards (the sharded top level
    builds that one with the run's ``jobs``)."""
    if kind == "simulated":
        return SimulatedExecutor(workers, observer=observer)
    if kind == "process":
        return ProcessExecutor(workers, observer=observer)
    raise ValueError(f"unknown executor kind {kind!r}")


def warn_unused_jobs(config) -> None:
    """Warn when ``config`` asks for the process executor but leaves its
    pool nothing to run (``shards=1``): the run is in-process and
    ``jobs`` is unused.  Called by an engine's ``run`` before its level
    pipeline starts.

    A UserWarning: RuntimeWarning is reserved for a pool run that
    degraded to in-parent computation, which tests and the ladder treat
    as a failure.
    """
    if config.executor == "process" and config.shards == 1:
        warnings.warn(
            "executor='process' rewrites only shards on its process pool: "
            "with shards=1 this run is in-process and jobs is unused "
            "(set shards > 1 to use the pool)",
            stacklevel=3,
        )
