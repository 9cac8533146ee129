"""Galois-like parallel runtime: cautious operators, exclusive locks,
abort-and-retry on the simulated scheduler, and the process pool that
runs shards.

The pool (:mod:`repro.galois.procpool`, with ``multiprocessing``) is
re-exported lazily (:mod:`repro._lazy`): an in-process run never loads
it.
"""

import warnings

from .._lazy import attach
from ..config import EXECUTOR_KINDS

__getattr__, __dir__, __all__ = attach(__name__, {
    "activity": ("Operator", "Phase"),
    "procpool": ("ProcessExecutor", "default_jobs"),
    "simsched": ("SimulatedExecutor",),
    "stats": ("ExecutionStats", "StageStats"),
})
__all__ += ["EXECUTOR_KINDS", "warn_unused_jobs"]

# Eager, after attach() so the binding rule sees it: every run makes one.
from .simsched import SimulatedExecutor  # noqa: E402


def make_executor(kind: str, workers: int, observer=None):
    """The level pipeline's executor: ``'simulated'`` or ``'process'``.
    The process executor runs level stages on its simulated scheduler;
    its pool only ever rewrites whole shards (the sharded top level
    builds that one with the run's ``jobs``)."""
    if kind == "simulated":
        return SimulatedExecutor(workers, observer=observer)
    if kind == "process":
        from .procpool import ProcessExecutor

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
