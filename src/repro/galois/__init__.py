"""Galois-like parallel runtime: cautious operators, exclusive locks,
abort-and-retry, simulated, threaded and process-pool executors."""

from .activity import Operator, Phase
from .procpool import ProcessExecutor, default_jobs
from .simsched import SimulatedExecutor
from .stats import ExecutionStats, StageStats
from .threaded import ThreadedExecutor

EXECUTOR_KINDS = ("simulated", "threaded", "process")

__all__ = [
    "Operator",
    "Phase",
    "ProcessExecutor",
    "SimulatedExecutor",
    "ExecutionStats",
    "StageStats",
    "ThreadedExecutor",
    "EXECUTOR_KINDS",
    "default_jobs",
]


def make_executor(kind: str, workers: int, observer=None, jobs=None):
    """Factory: ``'simulated'``, ``'threaded'`` or ``'process'``.
    ``jobs`` is the OS worker-process count for the process executor
    (ignored by the others)."""
    if kind == "simulated":
        return SimulatedExecutor(workers, observer=observer)
    if kind == "threaded":
        return ThreadedExecutor(workers, observer=observer)
    if kind == "process":
        return ProcessExecutor(workers, observer=observer, jobs=jobs)
    raise ValueError(f"unknown executor kind {kind!r}")
