"""Deterministic discrete-event simulation of Galois-style parallelism.

Why simulate?  The paper's speedup claims rest on a *structural*
mechanism — which operator holds which exclusive locks for how long,
and how much computation a conflict-triggered abort throws away.  The
CPython GIL makes real-thread wall-clock meaningless for pure-Python
graph code, so this executor models parallel **time** while executing
activities **serially and deterministically**:

* ``workers`` logical workers each carry a clock (in abstract work
  units — the costs reported by the operators themselves, e.g. cut
  merges performed and structures evaluated, so times are data-driven).
* Activities are popped in worker-clock order and executed to
  completion on the real graph; their phase costs advance the worker's
  clock, and their lock acquisitions are checked against the lock
  *intervals* of activities concurrently in flight in simulated time.
* A conflicting acquisition aborts the activity (Galois semantics: the
  acquirer of an already-held lock loses): all work performed so far in
  the activity is counted as wasted, no effects are applied (the
  cautious-operator protocol of :mod:`repro.galois.activity` guarantees
  mutations happen only after the last acquisition), and the activity
  retries after the conflicting holder's interval ends.
* The intervals live in a per-stage **lock table**, ``lock -> [(commit
  seq, acq, end), ...]`` in commit order: an acquisition looks only at
  the wanted locks that are keys of the table — none when nothing
  conflicts — so its cost does not grow with ``workers`` (DESIGN.md §4e).

Committed effects are applied in pop order, which is a serializable
order; the simulation is therefore exact for semantics and a faithful
model for timing.  One approximation is inherited from executing in
start-time order: a conflict in which the *earlier-started* activity
performs the *later* acquisition is attributed to the later-started
activity instead.  Both the fused-operator baseline and DACPara are
measured under the same rule, so comparisons are unaffected.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SchedulerError
from ..obs.observer import NULL_OBSERVER, Observer
from ..rewrite.columnar import run_enum_batched, run_eval_batched
from .activity import Operator, Phase
from .stats import ExecutionStats, StageStats

MAX_RETRIES = 100_000


def _item_args(item: object) -> dict:
    """Deterministic trace args for a worklist item (node ids only —
    arbitrary objects would leak memory addresses via repr)."""
    return {"node": item} if isinstance(item, int) else {}


def _publish_stage(obs: Observer, stage: StageStats) -> None:
    """Per-stage conflict/abort counters for the metrics registry."""
    obs.count("stage_runs_total", 1, stage=stage.name)
    obs.count("activities_total", stage.activities, stage=stage.name)
    obs.count("committed_total", stage.committed, stage=stage.name)
    obs.count("conflicts_total", stage.conflicts, stage=stage.name)
    obs.count("useful_units_total", stage.useful_units, stage=stage.name)
    obs.count("aborted_units_total", stage.aborted_units, stage=stage.name)


class SimulatedExecutor:
    """Discrete-event parallel executor with ``workers`` logical workers.

    Successive :meth:`run` calls are separated by barriers: a stage
    starts only after every activity of the previous stage has ended
    (this is exactly Algorithm 1's per-worklist, per-stage structure).

    ``observer`` receives a stage span per :meth:`run`, an activity
    span per commit/abort (on the worker's track) and a conflict
    instant per abort, all timestamped in simulated work units — the
    default no-op observer costs one attribute check per event site.
    ``track_offset`` shifts this executor's observer tracks so two
    executors sharing one observer (the GPU model's device/host pair)
    stay visually separate in a trace.
    """

    def __init__(
        self,
        workers: int,
        observer: Optional[Observer] = None,
        track_offset: int = 0,
    ):
        if workers < 1:
            raise SchedulerError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.now = 0
        self.stats = ExecutionStats(workers=workers)
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.track_offset = track_offset
        self.lock_probes = 0  # entries in the lock-table lists touched

    def close(self) -> None:
        """Release executor resources (no-op here; the process-pool
        executor overrides this to shut its worker pool down)."""

    def run_eval(self, name: str, items: Sequence[int], ctx) -> StageStats:
        """The eval stage via the columnar batch kernels plus replay.

        Candidates for the whole worklist are precomputed in one batch
        (:func:`~repro.rewrite.columnar.eval_tasks_columnar`, against
        ``ctx.library``), then replayed through :meth:`run` with the
        meter charges and phase costs of a per-root Section 4.3
        operator — the eval stage is lock-free and activities commit in
        worklist order, so stats, spans and stored candidates are
        byte-identical to such an operator's (``tests/reference.py``
        keeps one as the differential reference).
        """
        return run_eval_batched(self, name, items, ctx)

    def run_enum(self, name: str, items: Sequence[int], ctx) -> StageStats:
        """The enum stage via the columnar cut-merge kernel plus replay:
        every merge the worklist needs is precomputed, one kernel call
        per dependency wave, and installed through a replay operator
        charging the identical pair costs, so stats and the cut cache
        are byte-identical to running the Section 4.2 enum operator per
        root (:func:`~repro.rewrite.columnar.run_enum_batched`)."""
        return run_enum_batched(self, name, items, ctx)

    def run(self, name: str, items: Sequence, operator: Operator) -> StageStats:
        """Execute ``operator(item)`` for every item; returns stage stats."""
        start_wall = time.perf_counter()
        stage = StageStats(name=name, start_time=self.now, end_time=self.now)
        stage.activities = len(items)
        obs = self.obs
        span = None
        if obs.enabled:
            span = obs.begin(name, "stage", self.now, activities=len(items))
        # Sorted, so already a heap.
        worker_heap: List[Tuple[int, int]] = [(self.now, w) for w in range(self.workers)]
        ready = deque(items)
        retry: List[Tuple[int, int, object]] = []
        retry_counts: dict = {}
        seq = 0
        # The stage's lock table: lock -> [(commit_seq, acq, end), ...]
        # in commit order, one entry per committed acquisition.
        held: Dict[object, List[Tuple[int, int, int]]] = {}
        heappop, heappush, next_ready = heapq.heappop, heapq.heappush, ready.popleft
        observing = obs.enabled
        committed, useful, end_time = 0, 0, self.now

        while ready or retry:
            t, w = heappop(worker_heap)
            if retry and retry[0][0] <= t:
                rt, _, item = heappop(retry)
            elif ready:
                item = next_ready()
            else:
                rt, _, item = heappop(retry)
                t = max(t, rt)

            gen = operator(item)
            acc = 0
            acquired: List[Tuple[int, frozenset]] = []
            conflict: Optional[Tuple[int, object]] = None
            # Iterating the generator runs the operator's code; the final
            # next() (raising StopIteration inside the for) executes the
            # post-last-yield mutation block with every lock acquired.
            for phase in gen:
                if not isinstance(phase, Phase):
                    raise SchedulerError(
                        f"operator yielded {type(phase).__name__}, expected Phase"
                    )
                # Acquire-then-work: locks are requested at the current
                # instant and, if granted, held until the activity ends;
                # the phase's cost is work performed while holding them.
                if phase.locks:
                    contended = held.keys() & phase.locks
                    if contended:
                        conflict = self._first_holder(held, contended, t, t + acc)
                        if conflict is not None:
                            break
                    acquired.append((t + acc, phase.locks))
                acc += phase.cost
            if conflict is not None:
                gen.close()
                conflict_at, key = conflict
                stage.conflicts += 1
                stage.aborted_units += acc
                if observing:
                    track = self.track_offset + w + 1
                    obs.activity("abort", name, t, t + acc, track,
                                 **_item_args(item))
                    obs.instant("conflict", name, t + acc, track)
                count = retry_counts.get(id(item), 0) + 1
                retry_counts[id(item)] = count
                stage.retries += 1
                if count > MAX_RETRIES:
                    raise SchedulerError(
                        f"activity {item!r} aborted {count} times in stage "
                        f"{name!r}; contended key: {key!r}"
                    )
                # Linear backoff on repeat losers: hot-spot contention
                # (many activities fighting over one hub lock) would
                # otherwise re-execute the whole pack once per commit.
                backoff = (count - 1) * max(acc, 1)
                seq += 1
                heappush(retry, (max(conflict_at, t + acc) + backoff, seq, item))
                heappush(worker_heap, (t + acc, w))
                if t + acc > end_time:
                    end_time = t + acc
                continue
            end = t + acc
            committed += 1
            useful += acc
            if observing:
                obs.activity("commit", name, t, end, self.track_offset + w + 1,
                             cost=acc, **_item_args(item))
            # An activity's own acquisitions enter the table only here,
            # so its later phases never conflict with its earlier ones.
            for acq, locks in acquired:
                entry = (committed, acq, end)
                for lock in locks:
                    held.setdefault(lock, []).append(entry)
            heappush(worker_heap, (end, w))
            if end > end_time:
                end_time = end

        stage.committed, stage.useful_units = committed, useful
        stage.end_time = end_time
        self.now = stage.end_time
        # Physical time goes into the stats only, never into the span
        # (trace timestamps are simulated units and must stay
        # byte-identical across re-runs).
        stage.wall_seconds = time.perf_counter() - start_wall
        self.stats.stages.append(stage)
        if obs.enabled:
            _publish_stage(obs, stage)
            obs.end(span, stage.end_time, committed=stage.committed,
                    conflicts=stage.conflicts, useful_units=stage.useful_units,
                    aborted_units=stage.aborted_units)
        return stage

    def _first_holder(self, held: dict, contended: set, t: int,
                      acq_time: int) -> Optional[Tuple[int, object]]:
        """``(end, lock)`` of the first activity in commit order holding
        one of the ``contended`` locks at ``acq_time``, or None.

        A list in which the walk meets an entry that ended by the pop
        time ``t`` is pruned of all such entries: pop times never
        decrease and every acquisition is at or after its pop, so they
        can never match again.
        """
        first = end = key = None
        probes = 0
        for lock in contended:
            entries = held[lock]
            probes += len(entries)
            stale = False
            for seq, acq, until in entries:  # commit order: first match wins
                if until <= t:
                    stale = True
                elif acq <= acq_time < until:
                    if first is None or seq < first:
                        first, end, key = seq, until, lock
                    break
            if stale:
                entries[:] = [e for e in entries if e[2] > t]
                if not entries:
                    del held[lock]
        self.lock_probes += probes
        return None if first is None else (end, key)
