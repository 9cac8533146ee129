"""Real-thread executor with Galois abort-and-retry semantics.

Exists to demonstrate that the operator protocol is genuinely safe
under preemptive interleaving — it runs the same generators as the
simulated executor with real ``threading`` workers and a shared lock
registry.  Wall-clock speedup is *not* the point (the GIL serializes
pure-Python work; DESIGN.md documents this substitution; the shard
pool in :mod:`repro.galois.procpool` is the one built for wall-clock);
the tests use it to show results and graph invariants
are preserved under real concurrency.

Two safety layers:

* per-key exclusive locks with abort-on-conflict (the Galois model);
* one global commit mutex around the final generator resumption,
  because the shared graph's Python dict/list internals are not
  safe for concurrent *mutation* (reads are).

Contended activities retry with capped exponential backoff instead of
hot-spinning the queue; an activity that exhausts ``MAX_RETRIES``
raises a :class:`SchedulerError` naming the lock keys it kept losing
on, and every requeue is counted in the stage's ``retries``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import List, Optional, Sequence

from ..errors import SchedulerError
from ..obs.observer import NULL_OBSERVER, Observer
from .activity import Operator, Phase
from .simsched import _publish_stage
from .stats import ExecutionStats, StageStats

MAX_RETRIES = 1_000
# Exponential backoff: BACKOFF_BASE * 2**min(attempts, BACKOFF_CAP_EXP)
# seconds before a contended activity is requeued, capped at
# BACKOFF_MAX so a long-held hub lock cannot park a worker forever.
BACKOFF_BASE = 2e-5
BACKOFF_CAP_EXP = 10
BACKOFF_MAX = 0.02


class ThreadedExecutor:
    """Pool of real threads running cautious operators.

    Real threads have no deterministic clock, so the observer gets
    stage-level spans and counters only (no per-activity spans): the
    stage timeline advances by each stage's useful work, which keeps
    traces monotonic and comparable with the simulated executor's
    serial (1-worker) timing.
    """

    def __init__(self, workers: int, observer: Optional[Observer] = None):
        if workers < 1:
            raise SchedulerError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.now = 0
        self.stats = ExecutionStats(workers=workers)
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._registry_mutex = threading.Lock()
        self._held: dict = {}  # lock key -> owner thread id
        self._commit_mutex = threading.Lock()

    def close(self) -> None:
        """No pooled resources to release (threads are per-stage)."""

    def run_eval(self, name: str, items: Sequence, ctx) -> StageStats:
        """The eval stage via the columnar batch kernels plus replay
        (see :meth:`SimulatedExecutor.run_eval <repro.galois.simsched.
        SimulatedExecutor.run_eval>` — identical contract): the batch
        is precomputed in-process, the replay operators run on real
        threads and, taking no locks, store per root what a serial
        run would."""
        from ..rewrite.columnar import run_eval_batched

        return run_eval_batched(self, name, items, ctx)

    def run_enum(self, name: str, items: Sequence, ctx) -> StageStats:
        """The enum stage via the columnar cut-merge kernels plus
        replay (see :meth:`SimulatedExecutor.run_enum <repro.galois.
        simsched.SimulatedExecutor.run_enum>` — identical contract).
        The replay operators install under the commit mutex (every
        generator resumption holds it), so the shared cut cache stays
        safe."""
        from ..rewrite.columnar import run_enum_batched

        return run_enum_batched(self, name, items, ctx)

    def run(self, name: str, items: Sequence, operator: Operator) -> StageStats:
        """Execute ``operator(item)`` on real threads; returns stats."""
        start_wall = time.perf_counter()
        stage = StageStats(name=name, start_time=self.now, end_time=self.now)
        stage.activities = len(items)
        queue = deque((item, 0) for item in items)
        queue_mutex = threading.Lock()
        stats_mutex = threading.Lock()
        errors: List[BaseException] = []

        def worker() -> None:
            while True:
                with queue_mutex:
                    if not queue:
                        return
                    item, attempts = queue.popleft()
                me = threading.get_ident()
                mine: List[object] = []
                gen = operator(item)
                conflicted = False
                contended: List[object] = []
                acc = 0
                try:
                    phases = iter(gen)
                    while True:
                        # The final next() runs the mutation block; guard it.
                        with self._commit_mutex:
                            try:
                                phase = next(phases)
                            except StopIteration:
                                break
                        loser = self._try_acquire(phase.locks, me, mine)
                        if loser is not None:
                            conflicted = True
                            contended.append(loser)
                            break
                        acc += phase.cost
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                finally:
                    if conflicted:
                        gen.close()
                    self._release(mine)
                with stats_mutex:
                    if conflicted:
                        stage.conflicts += 1
                        stage.aborted_units += acc
                    else:
                        stage.committed += 1
                        stage.useful_units += acc
                if conflicted:
                    if attempts + 1 > MAX_RETRIES:
                        errors.append(
                            SchedulerError(
                                f"activity {item!r} aborted {attempts + 1} "
                                f"times in stage {name!r}; contended keys: "
                                f"{sorted(map(repr, set(contended)))[:8]}"
                            )
                        )
                        return
                    with stats_mutex:
                        stage.retries += 1
                    # Capped exponential backoff: let the conflicting
                    # holder finish instead of hot-spinning the queue.
                    time.sleep(
                        min(
                            BACKOFF_MAX,
                            BACKOFF_BASE * (1 << min(attempts, BACKOFF_CAP_EXP)),
                        )
                    )
                    with queue_mutex:
                        queue.append((item, attempts + 1))

        obs = self.obs
        span = None
        if obs.enabled:
            span = obs.begin(name, "stage", self.now, activities=len(items))
        threads = [threading.Thread(target=worker) for _ in range(self.workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        # Logical stage timeline: advance by the stage's useful work
        # (wall-clock is GIL-distorted and non-reproducible; see module
        # docstring) so stats and traces stay monotonic.
        stage.end_time = self.now + stage.useful_units
        stage.wall_seconds = time.perf_counter() - start_wall
        self.now = stage.end_time
        self.stats.stages.append(stage)
        if obs.enabled:
            _publish_stage(obs, stage)
            obs.end(span, stage.end_time, committed=stage.committed,
                    conflicts=stage.conflicts, useful_units=stage.useful_units,
                    aborted_units=stage.aborted_units)
        return stage

    def _try_acquire(self, locks, me: int, mine: List[object]):
        """Acquire every key in ``locks`` or none; returns the first
        contended key on failure, None on success."""
        if not locks:
            return None
        with self._registry_mutex:
            for key in locks:
                owner = self._held.get(key)
                if owner is not None and owner != me:
                    return key
            for key in locks:
                if key not in self._held:
                    self._held[key] = me
                    mine.append(key)
        return None

    def _release(self, mine: List[object]) -> None:
        if not mine:
            return
        with self._registry_mutex:
            for key in mine:
                self._held.pop(key, None)
            mine.clear()
