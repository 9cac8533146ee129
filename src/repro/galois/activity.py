"""The operator/activity protocol of the Galois-like runtime.

An *activity* is one unit of speculative parallel work (for rewriting:
one node through one operator).  Operators are **generator functions**:

.. code-block:: python

    def operator(node):
        locks, cost = compute_something_readonly(node)
        yield Phase(locks=locks, cost=cost)
        more = compute_more_readonly(node)
        yield Phase(locks=more.locks, cost=more.cost)
        mutate_the_graph(node)          # only after the final yield!

Each ``yield Phase(...)`` is a lock-acquisition point: the runtime
checks the requested locks against activities that are concurrently
in flight (in simulated or real time).  On conflict, the generator is
closed and the activity retries later from scratch — which is safe
precisely because the Galois *cautious operator* convention is
enforced by this protocol: **all graph mutation must happen after the
last yield**, when every lock is held.  Work performed before an abort
is counted as wasted (the paper's Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Generator, Iterable

from ..errors import SchedulerError


@dataclass
class Phase:
    """A lock-acquisition point.

    ``locks`` are acquired first (conflict → abort, losing all work of
    *earlier* phases); ``cost`` is the work then performed while
    holding them.  Express "compute expensively, then lock" as two
    phases: ``Phase((), big_cost)`` followed by ``Phase(locks, small)``
    — which is precisely how the fused ICCAD'18 operator loses its
    evaluation work on conflicts (the paper's Fig. 2)."""

    locks: FrozenSet[int]
    cost: int

    def __init__(self, locks: Iterable[int] = (), cost: int = 1):
        if cost < 0:
            raise SchedulerError(f"negative phase cost {cost}")
        self.locks = frozenset(locks)
        self.cost = cost


Operator = Callable[..., Generator[Phase, None, None]]
