"""Process-pool executor: true multi-core wall-clock for the read stages.

The paper's argument (Section 4.3) is that evaluation — >90 % of
rewrite runtime — is embarrassingly parallel: it only *reads* the
shared graph and writes disjoint ``prepInfo`` slots.  Cut enumeration
is read-only over the stage-start graph too.  The GIL keeps the
threaded executor from cashing that in; this executor does it with
``concurrent.futures.ProcessPoolExecutor``:

1. the parent ships the worklist's shared read state as a stage ref
   (:mod:`repro.galois.shipper`) — the pickle of a full
   :class:`~repro.aig.snapshot.AigSnapshot` capture only when it must
   (first stage of a run, or after heavy mutation), otherwise an
   incremental :class:`~repro.aig.snapshot.SnapshotDelta` against the
   base snapshot the workers cache per run;
2. node chunks fan out to a persistent worker pool as **column
   blocks** (:class:`_ColumnChunk`): cut-set rows by value — the
   de-duplicated fanin rows of an enumeration chunk, a ``leaves``/``tt``
   slice of the evaluation stage's table — never ``Cut`` objects and
   never arena offsets (DESIGN.md §4c has the ownership rules);
3. returned result rows / units and winners are merged on the parent by
   **replaying** them through the inherited simulated scheduler with
   the workers' reported per-node costs.

Step 3 is what makes ``executor="process"`` produce *byte-identical*
results, stats and traces to ``"simulated"``: evaluation
and enumeration costs are data-driven (structures evaluated per cut,
merge pairs per node), independent of where the computation physically
ran, so the replay reconstructs the exact simulated timeline while the
heavy lifting happened on real cores.  Replacement runs on the
inherited simulated path — graph mutation semantics are untouched.

When the platform cannot spawn processes (restricted sandboxes), the
executor falls back to computing chunks in-parent — same results, no
parallelism — and says so via ``warnings`` once *per run* (each
executor instance carries a run id, so two runs in one interpreter
each report their own fallback).

Fault tolerance is *chunk-grained*, not stage-grained: a chunk that
raises, returns a corrupted result, or times out is retried with
capped exponential backoff, split in half on repeated failure, and —
only as a last resort — computed in-parent and recorded on the
executor's quarantine list, while every other chunk of the fan-out
still completes on worker cores.  A dead pool (``BrokenProcessPool``)
is restarted a bounded number of times instead of being abandoned for
the rest of the run.  The policy's constants and the fault-injection
hook that tests it (``REPRO_FAULT_PLAN`` / ``config.fault_plan``) live
in :mod:`repro.galois.faults`.  Because every recovery path
reproduces the exact values a healthy worker would have returned (the
merge is keyed by root and replayed through the simulated scheduler),
results stay byte-identical to ``executor="simulated"`` under any
combination of faults.

Observability is dual-clock.  The replayed simulated timeline stays
byte-identical to ``executor="simulated"``; *physical* time is
captured separately: when the attached observer carries a ``wall``
timeline, every chunk carries a
:class:`~repro.obs.wall.ChunkTelemetry` record back from its worker —
wall-clock spans for snapshot patch and compute, merged parent-side
with the submit/receive timestamps into per-pid tracks on the
observer's :class:`~repro.obs.collect.WallTimeline`, along with
``chunk_wall_seconds{stage,phase}`` histograms, pool occupancy gauges,
fault instants and a bounded flight-recorder ring dumped on
quarantine or pool restart.  With the no-op observer none of this is
allocated: telemetry is side-channel only and results never depend on
it.
"""

from __future__ import annotations

import itertools
import os
import time
import warnings
from collections import deque
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - present on every supported CPython
    from concurrent.futures.process import BrokenProcessPool as _BrokenPool
except ImportError:  # pragma: no cover
    class _BrokenPool(RuntimeError):
        pass

from ..obs.observer import Observer
from ..obs.wall import ChunkTelemetry
from . import faults
from .shipper import (
    SnapshotCacheMiss,
    _SnapshotShipper,
    _ref_nbytes,
    _resolve_snapshot,
)
from .simsched import SimulatedExecutor
from .stats import StageStats

#: Worklists smaller than this are evaluated in-parent: the snapshot
#: pickle plus IPC round-trip costs more than the evaluation itself.
MIN_FANOUT = 16

_RUN_COUNTER = itertools.count(1)


def default_jobs() -> int:
    """Worker process count: one per core."""
    return max(1, os.cpu_count() or 1)


class ChunkResultError(Exception):
    """A worker returned a result list that does not answer the tasks
    it was handed (wrong length, wrong roots, wrong shape) — treated
    exactly like a worker-side exception: retry, split, quarantine."""


class _ColumnChunk:
    """One chunk of a column fan-out, by value: per-task vectors
    (``roots`` first) and the row columns those tasks index —

    * enum: ``task_cols = (comp0, comp1, off0, n0s, off1, n1s)`` over
      ``row_cols = (leaves, tt, stamps, sign)``, the de-duplicated fanin
      rows (:meth:`~repro.cuts.manager.CutManager.export_tasks`);
    * eval: ``task_cols = (off, counts)`` over ``row_cols = (leaves,
      tt)``, a slice of the stage's :class:`~repro.cuts.manager.
      CutColumns`.

    Offsets are local to ``row_cols`` (never the parent's arena), so
    slicing — the fault path's split — keeps the rows and halves the
    task vectors.
    """

    __slots__ = ("roots", "task_cols", "row_cols")

    def __init__(self, roots, task_cols, row_cols):
        self.roots = roots
        self.task_cols = task_cols
        self.row_cols = row_cols

    def __len__(self) -> int:
        return len(self.roots)

    def __getitem__(self, part: slice) -> "_ColumnChunk":
        return _ColumnChunk(
            self.roots[part], tuple(c[part] for c in self.task_cols),
            self.row_cols,
        )


def _validate_chunk(tasks, results: object):
    """Check a worker's answer actually answers ``tasks``.

    The merge is keyed by root, so an undetected misalignment would
    silently corrupt the replay; shape mismatches instead surface as
    :class:`ChunkResultError` and take the retry path.  A column chunk
    is answered by a tuple of the root echo, one per-task vector and
    the stage's payload, whose row columns (enum: ``leaves``, ``tt``,
    ``stamps``, ``sign``) must hold exactly the rows the per-task
    counts announce; a task list by as many ``(root, ..., ...)``
    triples.
    """
    if isinstance(tasks, _ColumnChunk):
        ok = (
            isinstance(results, tuple) and len(results) >= 3
            and all(isinstance(c, np.ndarray) for c in results[:2])
            and np.array_equal(results[0], tasks.roots)
            and len(results[1]) == len(tasks)
            and all(len(c) == results[1].sum() for c in results[2:]
                    if isinstance(c, np.ndarray))
        )
        if not ok:
            raise ChunkResultError(
                f"column result does not answer the {len(tasks)} task "
                f"roots it was handed"
            )
        return results
    if not isinstance(results, list) or len(results) != len(tasks):
        raise ChunkResultError(
            f"chunk returned {len(results) if isinstance(results, list) else type(results).__name__} "
            f"results for {len(tasks)} tasks"
        )
    for task, entry in zip(tasks, results):
        if not isinstance(entry, tuple) or len(entry) != 3 or entry[0] != task[0]:
            raise ChunkResultError(
                f"chunk result {entry!r} does not answer task root {task[0]}"
            )
    return results


class _MetricCollector(Observer):
    """Order-insensitive metric sink used inside pool workers.

    Counters and histogram observations recorded against the snapshot
    are replayed into the parent's observer after the fan-in, so a
    process run reports the same ``npn_class_hits_total``/
    ``cuts_per_node``/``gain`` metrics a simulated run does.
    """

    enabled = True

    def __init__(self) -> None:
        self.counts: Dict[Tuple[str, Tuple[Tuple[str, object], ...]], int] = {}
        self.observations: List[
            Tuple[str, Tuple[Tuple[str, object], ...], float]
        ] = []

    def count(self, name: str, n: int = 1, **labels: object) -> None:
        key = (name, tuple(sorted(labels.items())))
        self.counts[key] = self.counts.get(key, 0) + n

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.observations.append((name, tuple(sorted(labels.items())), value))

    def replay_into(self, obs: Observer) -> None:
        for (name, labels), n in sorted(self.counts.items()):
            obs.count(name, n, **dict(labels))
        for name, labels, value in self.observations:
            obs.observe(name, value, **dict(labels))

    def merge(self, other: "_MetricCollector") -> None:
        for key, n in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + n
        self.observations.extend(other.observations)


# ---------------------------------------------------------------------------
# Worker entry points
# ---------------------------------------------------------------------------


def _eval_columns(aig_like, chunk: _ColumnChunk, config, collector):
    """Score one eval chunk against a read-only AIG view.

    Like every stage function, runs identically against an
    :class:`~repro.aig.snapshot.AigSnapshot` (worker side) or the live
    :class:`Aig` (the per-chunk in-parent degrade): :func:`~repro.
    rewrite.columnar.eval_tasks_columnar` over the chunk's
    ``leaves``/``tt`` rows.
    Returns ``(roots, units, winners)`` — the root echo, each root's
    structure-evaluation units (the cost the simulated eval operator
    charges, ``-1`` for a dead root) and the candidates found, each
    naming its cut by index within its root's set.
    """
    from ..cuts.manager import CutColumns, _ranges
    from ..library import get_library
    from ..rewrite.columnar import eval_tasks_columnar

    off, counts = chunk.task_cols
    rows = _ranges(off, counts)
    table = CutColumns(chunk.roots.tolist(), counts.tolist(),
                       *(col[rows] for col in chunk.row_cols), None)
    triples = eval_tasks_columnar(
        aig_like, table, config, get_library(), observer=collector)
    return (chunk.roots, np.array([t[2] for t in triples], dtype=np.int64),
            [t[1] for t in triples if t[1] is not None])


def _enum_columns(aig_like, chunk: _ColumnChunk, config, collector):
    """Merge one enum chunk: a throwaway manager over ``aig_like`` (the
    snapshot worker-side, the live graph for an in-parent degrade)
    loads the shipped rows and runs the same kernel as the in-process
    batch — :meth:`~repro.cuts.manager.CutManager.merge_exported`.
    Returns ``(roots, counts, leaves, tt, stamps, sign)``; the pairs
    merged and the kernel call ride the collector as
    ``enum_vectorized_pairs_total`` / ``enum_kernel_calls_total``."""
    from ..cuts.manager import CutManager

    cutman = CutManager(aig_like, max_cuts=config.max_cuts)
    out = cutman.merge_exported(
        chunk.roots, *chunk.task_cols, chunk.row_cols, observer=collector)
    collector.count("enum_vectorized_pairs_total", cutman.vec_pairs)
    collector.count("enum_kernel_calls_total", cutman.kernel_calls)
    return out


def _shard_tasks(aig_like, tasks, config, collector) -> List[Tuple[int, object, int]]:
    """Run the full rewrite pipeline on each ``(index, shard)`` task.

    Like the column stages, runs identically against the live graph
    (in-parent fallback) or a snapshot (worker side): the per-shard
    rewrite is deterministic, so every recovery path reproduces the
    exact payload a healthy worker would have returned.  Returns
    ``(index, payload, work-units)`` triples.
    """
    from ..core.shards import rewrite_shard

    out: List[Tuple[int, object, int]] = []
    for index, shard in tasks:
        payload = rewrite_shard(aig_like, shard, config)
        collector.count("shard_runs_total")
        out.append((index, payload, payload["counters"]["work_units"]))
    return out


def _run_chunk(stage_fn, ref, tasks, config, fault: Optional[str] = None,
               telemetry: Optional[tuple] = None):
    """The worker entry point: resolve the snapshot and run one chunk
    through ``stage_fn`` (:func:`_eval_columns`, :func:`_enum_columns`
    or :func:`_shard_tasks`).  ``telemetry`` is ``(stage, chunk,
    attempt)`` — the fan-out coordinates only the parent knows — or
    None when the observer is the no-op (no record is then allocated).
    """
    if fault is not None:
        faults._execute_fault(fault)
    tele = None
    if telemetry is not None:
        tele = ChunkTelemetry.begin(*telemetry, tasks=len(tasks))
        tele.enter("patch")
    collector = _MetricCollector()
    snapshot = _resolve_snapshot(ref, collector)
    if tele is not None:
        tele.enter("compute")
    out = stage_fn(snapshot, tasks, config, collector)
    if fault == "corrupt":
        out = faults._corrupt_results(out)
    if tele is not None:
        tele.done(results=len(tasks))
    return out, collector, tele


def _warm_shared_state(config) -> None:
    """Build the heavyweight read-only tables in the parent before the
    pool forks, so workers inherit them copy-on-write instead of each
    rebuilding the NPN LUT and reloading the NST."""
    from ..library import get_library
    from ..npn import ensure_canon_lut

    ensure_canon_lut()
    get_library()
    config.allowed_classes  # forces the class-set (and canon) tables


class _ChunkJob:
    """One chunk of a stage fan-out, carrying its retry provenance.

    ``index`` is the chunk's coordinate in the *initial* chunking (the
    fault plan's and the quarantine list's coordinate system — halves
    of a split chunk keep their parent's index).  ``ref`` is the
    snapshot ref every submission of this chunk ships and ``kind`` the
    label its bytes are counted under: the stage's, or the
    self-contained ``refill`` after a worker-side cache miss.
    """

    __slots__ = ("index", "tasks", "ref", "kind", "attempts", "splits",
                 "refills")

    def __init__(self, index: int, tasks, ref: tuple, kind: str,
                 splits: int = 0):
        self.index = index
        self.tasks = tasks
        self.ref = ref
        self.kind = kind
        self.attempts = 0
        self.splits = splits
        self.refills = 0


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ProcessExecutor(SimulatedExecutor):
    """Simulated scheduler whose read stages run on real processes.

    ``workers`` is the *logical* worker count of the simulated timeline
    (the paper's parallelism model); ``jobs`` is the number of OS
    worker processes doing the physical work (defaults to the core
    count).  The two are independent knobs: quality and reported
    speedups follow ``workers``, wall-clock follows ``jobs``.
    """

    def __init__(
        self,
        workers: int,
        observer: Optional[Observer] = None,
        jobs: Optional[int] = None,
    ):
        super().__init__(workers, observer=observer)
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"need at least one job, got {self.jobs}")
        self._pool = None
        self._pool_broken = False
        # One executor = one run: refs are keyed by this id in the
        # worker caches, and fallback warnings are scoped to it.
        self.run_id = f"{os.getpid():x}-{next(_RUN_COUNTER)}"
        self._fallback_warned = False
        self._shipper = _SnapshotShipper(self.run_id)
        self.snapshot_bytes_total = 0
        self.shipped_bytes: Dict[str, int] = {}
        self.cache_refills = 0
        # The simulated-clock span of the fan-out whose replay is
        # running: (span, snapshot bytes), closed by _native_stage.
        self._fanout_span: Optional[tuple] = None
        # Cumulative shard chunks fanned out across seam-rotation
        # passes: keeps fault-plan chunk coordinates ("mode@shard:N")
        # global over a multi-pass run instead of restarting at 0.
        self.shard_chunks_seen = 0
        # Fault-tolerance bookkeeping (mirrored into the observer as
        # pool_restarts_total / chunk_retries_total{stage} /
        # chunk_timeouts_total / quarantined_chunks_total /
        # chunk_fallback_total).
        self.pool_restarts = 0
        self.chunk_retries = 0
        self.chunk_timeouts = 0
        self.chunk_fallbacks = 0
        self.quarantined: List[Tuple[str, int]] = []
        self._fault_plan: Optional[faults.FaultPlan] = None
        self._fault_plan_spec: Optional[str] = None

    # -- pool management ----------------------------------------------

    def _warn_fallback(self, why: str) -> None:
        """Warn that this run degraded to in-parent computation.

        Scoped per run: the run id in the message keeps Python's
        warning registry from deduplicating one run's fallback against
        another's, and the instance flag keeps one run from warning on
        every stage.
        """
        if self._fallback_warned:
            return
        self._fallback_warned = True
        warnings.warn(
            f"run {self.run_id}: {why}; computing in-parent",
            RuntimeWarning,
            stacklevel=3,
        )

    def _ensure_pool(self):
        if self._pool is None and not self._pool_broken:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (ImportError, OSError, ValueError) as exc:
                self._pool_broken = True
                self._warn_fallback(f"process pool unavailable ({exc})")
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down without waiting on its workers.

        Used when the pool is known (or suspected) to be wedged or
        broken: outstanding futures are cancelled, and any worker still
        alive — e.g. one hung past its chunk deadline — is terminated
        so neither this run nor interpreter shutdown blocks on it.
        """
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None)
        procs = list(processes.values()) if processes else []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:  # pragma: no cover - already reaped
                pass

    def _restart_pool(self, why: str):
        """Replace a dead/wedged pool, within the restart budget.

        Returns the fresh pool, or None once the budget is spent — the
        caller then degrades the remaining chunks in-parent (the pool
        is *not* marked permanently broken: the next run gets a clean
        slate via its own executor instance).
        """
        self._discard_pool()
        budget = faults.POOL_RESTART_BUDGET
        if self.pool_restarts >= budget:
            self._warn_fallback(
                f"pool restart budget ({budget}) exhausted after {why}"
            )
            return None
        self.pool_restarts += 1
        if self.obs.enabled:
            self.obs.count("pool_restarts_total")
            wall = self._wall()
            if wall is not None:
                wall.instant("pool_restart", why=why,
                             restarts=self.pool_restarts)
                wall.dump_flight("pool_restart", why=why)
        return self._ensure_pool()

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down and drop the base snapshot
        (idempotent).  ``wait=False`` (the ``__del__`` path) never
        joins workers, so a wedged worker cannot block garbage
        collection or interpreter teardown."""
        if not wait:
            self._discard_pool()
        elif self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._shipper.release()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close(wait=False)
        except Exception:
            pass

    # -- shared fan-out plumbing --------------------------------------

    def _account_bytes(self, stage: str, kind: str, nbytes: int) -> None:
        self.snapshot_bytes_total += nbytes
        self.shipped_bytes[kind] = self.shipped_bytes.get(kind, 0) + nbytes
        obs = self.obs
        if obs.enabled:
            obs.count("snapshot_bytes_shipped_total", nbytes, stage=stage, kind=kind)

    def _get_fault_plan(self, config) -> Optional[faults.FaultPlan]:
        spec = config.fault_plan or os.environ.get("REPRO_FAULT_PLAN")
        if spec != self._fault_plan_spec:
            self._fault_plan_spec = spec
            self._fault_plan = faults.FaultPlan.parse(spec)
        return self._fault_plan

    # -- wall-clock telemetry -----------------------------------------

    def _wall(self):
        """The observer's wall timeline, or None when it carries none
        (telemetry is on iff the observer has one)."""
        if not self.obs.enabled:
            return None
        return getattr(self.obs, "wall", None)

    def _wall_instant(self, wall, name: str, **args) -> None:
        if wall is not None:
            wall.instant(name, **args)

    def _update_pool_gauges(self, wall) -> None:
        """Occupancy/utilization gauges from worker-span overlap; last
        write wins, so each fan-out refreshes the run-wide picture."""
        if wall is None or not wall.chunks:
            return
        util = wall.utilization(self.jobs)
        obs = self.obs
        obs.gauge("pool_utilization", round(util["utilization"], 6))
        obs.gauge("pool_peak_concurrency", util["peak_concurrency"])
        obs.gauge("pool_busy_seconds", round(util["busy_seconds"], 6))
        obs.gauge("pool_workers_seen", util["workers_seen"])

    def _degrade_chunk(self, job, fallback, collector):
        """Compute one chunk in-parent (the same stage function, against
        the live graph) — the rest of the fan-out still completes on
        worker cores."""
        self.chunk_fallbacks += 1
        if self.obs.enabled:
            self.obs.count("chunk_fallback_total")
        return fallback(job.tasks, collector)

    def _record_failure(
        self, job, retry, stage, fallback, collector, merged, wall=None,
    ) -> None:
        """Route one failed chunk: retry with backoff while its budget
        lasts, then split it in half, then quarantine and degrade."""
        progress = self.obs.progress
        job.attempts += 1
        if job.attempts <= faults.CHUNK_MAX_RETRIES:
            self.chunk_retries += 1
            if self.obs.enabled:
                self.obs.count("chunk_retries_total", stage=stage)
            self._wall_instant(wall, "chunk_retry", stage=stage,
                               chunk=job.index, attempt=job.attempts)
            if progress is not None:
                progress.bump("retries")
            retry.append(job)
            return
        if len(job.tasks) > 1 and job.splits < faults.MAX_SPLIT_DEPTH:
            mid = len(job.tasks) // 2
            self.chunk_retries += 2
            if self.obs.enabled:
                self.obs.count("chunk_retries_total", 2, stage=stage)
            self._wall_instant(wall, "chunk_split", stage=stage,
                               chunk=job.index, depth=job.splits + 1)
            if progress is not None:
                progress.bump("retries", 2)
            for piece in (job.tasks[:mid], job.tasks[mid:]):
                retry.append(
                    _ChunkJob(job.index, piece, job.ref, job.kind,
                              splits=job.splits + 1)
                )
            return
        # Poison chunk: every retry and split exhausted.  Record the
        # coordinates, surface them through the observer, and compute
        # the chunk in-parent so the stage still completes exactly.
        self.quarantined.append((stage, job.index))
        if self.obs.enabled:
            self.obs.count("quarantined_chunks_total")
            self.obs.instant(
                "chunk_quarantined", "fault", self.now,
                stage=stage, chunk=job.index, tasks=len(job.tasks),
            )
        self._wall_instant(wall, "chunk_quarantined", stage=stage,
                           chunk=job.index, tasks=len(job.tasks))
        if wall is not None:
            wall.dump_flight("chunk_quarantined", stage=stage,
                             chunk=job.index)
        merged.append(self._degrade_chunk(job, fallback, collector))

    def _collect_chunks(
        self, pool, stage_fn, ref, ref_kind, parts, config, collector,
        stage, aig, index_base=0,
    ):
        """Submit all chunks and fan results back in, fault-tolerantly:
        the list of per-chunk results, in completion order.

        Failure handling is chunk-grained: a worker that misses its
        cached base snapshot is refilled; a chunk that raises or
        returns a corrupted result retries with capped exponential
        backoff, splits on repeated failure, and is quarantined (and
        computed in-parent, ``stage_fn`` against the live ``aig``) as a
        last resort; a chunk that outlives
        ``config.chunk_timeout_seconds`` degrades in-parent
        immediately and the wedged pool is restarted; a
        ``BrokenProcessPool`` restarts the pool (within
        ``faults.POOL_RESTART_BUDGET``) and resubmits the chunks that
        died with it.  Every path reproduces the exact values a healthy
        worker would have returned, keeping process mode byte-identical
        to simulated mode under any fault.  Snapshot bytes are counted
        per submission — a retried, split or resubmitted chunk ships
        its ref again.
        """
        merged: list = []

        def fallback(tasks, coll):
            return stage_fn(aig, tasks, config, coll)

        obs = self.obs
        queue = deque(
            _ChunkJob(index, part, ref, ref_kind)
            for index, part in enumerate(parts, start=index_base)
        )
        plan = self._get_fault_plan(config)
        timeout = config.chunk_timeout_seconds
        wall = self._wall()
        progress = self.obs.progress
        while queue:
            if pool is None:
                while queue:
                    merged.append(
                        self._degrade_chunk(queue.popleft(), fallback, collector)
                    )
                break
            inflight: List[tuple] = []
            pool_dead = False
            wedged = False
            while queue:
                job = queue.popleft()
                fault = plan.arm(stage, job.index) if plan is not None else None
                tele_args = (
                    (stage, job.index, job.attempts) if wall is not None
                    else None
                )
                try:
                    future = pool.submit(
                        _run_chunk, stage_fn, job.ref, job.tasks, config,
                        fault, tele_args,
                    )
                except Exception:
                    # The pool died between rounds (broken or shut
                    # down): requeue this job and restart below.
                    pool_dead = True
                    queue.appendleft(job)
                    break
                inflight.append((job, future, time.time()))
                self._account_bytes(stage, job.kind, _ref_nbytes(job.ref))
                if obs.enabled:
                    self._count_payload(stage, "out", job.tasks)
            retry: List[_ChunkJob] = []
            for job, future, submit_time in inflight:
                try:
                    part_results, part_collector, part_tele = \
                        future.result(timeout=timeout)
                    if part_tele is not None and wall is not None:
                        phases = wall.add_chunk(
                            part_tele, submit_time, time.time()
                        )
                        for phase, seconds in phases.items():
                            obs.observe("chunk_wall_seconds", seconds,
                                        stage=stage, phase=phase)
                        if progress is not None:
                            progress.bump("chunks")
                    _validate_chunk(job.tasks, part_results)
                    merged.append(part_results)
                    collector.merge(part_collector)
                    if obs.enabled:
                        self._count_payload(stage, "back", part_results)
                except SnapshotCacheMiss:
                    # Fresh worker without this run's base: resubmit
                    # self-contained.  Not a failure — unless the
                    # self-contained payload misses too.
                    if job.refills >= 1:
                        self._record_failure(
                            job, retry, stage, fallback, collector,
                            merged, wall=wall,
                        )
                        continue
                    self.cache_refills += 1
                    if self.obs.enabled:
                        self.obs.count("worker_snapshot_cache_refills_total")
                    job.ref, job.kind = self._shipper.refill_ref(), "refill"
                    job.refills += 1
                    queue.append(job)
                except _FuturesTimeout:
                    # The worker is presumed wedged: only this chunk
                    # degrades in-parent, and the pool is replaced so
                    # the hung process cannot poison later stages.
                    self.chunk_timeouts += 1
                    if self.obs.enabled:
                        self.obs.count("chunk_timeouts_total")
                    self._wall_instant(wall, "chunk_timeout", stage=stage,
                                       chunk=job.index,
                                       deadline_seconds=timeout)
                    wedged = True
                    merged.append(self._degrade_chunk(job, fallback, collector))
                except _BrokenPool:
                    pool_dead = True
                    self._record_failure(
                        job, retry, stage, fallback, collector, merged,
                        wall=wall,
                    )
                except Exception:
                    # Worker-side raise (injected or real) or a
                    # corrupted result list caught by the validator.
                    self._record_failure(
                        job, retry, stage, fallback, collector, merged,
                        wall=wall,
                    )
            if pool_dead or wedged:
                why = "a broken pool" if pool_dead else "a timed-out chunk"
                pool = self._restart_pool(why)
            if retry:
                attempts = max(job.attempts for job in retry)
                if attempts > 0:
                    time.sleep(min(
                        faults.RETRY_BACKOFF_MAX,
                        faults.RETRY_BACKOFF_BASE
                        * (2 ** min(attempts, faults.RETRY_BACKOFF_CAP_EXP)),
                    ))
                queue.extend(retry)
        return merged

    def _count_payload(self, stage: str, direction: str, payload) -> None:
        """Count the array bytes of a column chunk or a column result
        (the shard fan-out's object payloads have none)."""
        if isinstance(payload, _ColumnChunk):
            payload = (payload.roots,) + payload.task_cols + payload.row_cols
        elif not isinstance(payload, tuple):
            return
        nbytes = sum(c.nbytes for c in payload if isinstance(c, np.ndarray))
        self.obs.count("fanout_payload_bytes_total", nbytes,
                       stage=stage, dir=direction)

    def _bounds(self, n: int) -> List[Tuple[int, int]]:
        """``[lo, hi)`` task ranges of one chunk per job."""
        step = (n + self.jobs - 1) // self.jobs
        return [(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def _fan_out(self, stage, aig, config, parts, stage_fn,
                 index_base=0, sim_span=True, **span_args):
        """Ship ``parts`` (one chunk each) with the stage's snapshot ref
        and fan the per-chunk results back in (completion order).
        Returns None when there is no pool to fan out to — never
        started, or lost to a whole-stage failure — and the caller
        computes in-parent instead.  ``stage`` (``eval``/``enum``/
        ``shard``) is the fault plan's coordinate and names the
        fan-out's spans and metrics.
        """
        pool = self._ensure_pool()
        if pool is None:
            return None
        start_wall = time.perf_counter()
        start_time = time.time()
        obs = self.obs
        _warm_shared_state(config)
        ref, ref_kind, ratio = self._shipper.stage_ref(aig)
        if obs.enabled and ref_kind == "delta":
            obs.observe("snapshot_delta_ratio", ratio)
        shipped_before = self.snapshot_bytes_total
        collector = _MetricCollector()
        try:
            merged = self._collect_chunks(
                pool, stage_fn, ref, ref_kind, parts, config, collector,
                stage, aig, index_base=index_base,
            )
        except (OSError, MemoryError) as exc:
            # Last-resort whole-stage degradation (fork limit, OOM
            # during submission) — per-chunk faults never get here.
            self._warn_fallback(f"process fan-out failed ({exc})")
            self._pool_broken = True
            self.close()
            return None
        if obs.enabled:
            # The ref rides every submission: chunks, retries, refills.
            snapshot_bytes = self.snapshot_bytes_total - shipped_before
            obs.observe("snapshot_bytes", snapshot_bytes)
            collector.replay_into(obs)
            obs.observe(f"{stage}_fanout_wall_seconds",
                        time.perf_counter() - start_wall)
            wall = self._wall()
            if wall is not None:
                wall.parent_span(
                    f"{stage}_fanout", start_time, time.time(), stage=stage,
                    chunks=len(parts), jobs=self.jobs, **span_args,
                )
                self._update_pool_gauges(wall)
            if sim_span:
                span = obs.begin(
                    f"{stage}_fanout", "fanout", self.now, jobs=self.jobs,
                    chunks=len(parts), **span_args,
                )
                self._fanout_span = (span, snapshot_bytes)
        return merged

    def _native_stage(self, batched, name, items, ctx, compute) -> StageStats:
        """Run ``batched`` (the in-process stage driver) with ``compute``
        standing in for its kernel call; the stage's wall time and the
        fan-out span cover harvest, fan-out and replay."""
        start_wall = time.perf_counter()
        try:
            stage = batched(self, name, items, ctx, compute)
        finally:
            fanout, self._fanout_span = self._fanout_span, None
        stage.wall_seconds = time.perf_counter() - start_wall
        if fanout is not None:
            self.obs.end(
                fanout[0], self.now,
                wall_ms=round(stage.wall_seconds * 1e3, 3),
                snapshot_bytes=fanout[1],
            )
        return stage

    # -- the native eval stage ----------------------------------------

    def run_eval(self, name: str, items: Sequence[int], ctx) -> StageStats:
        """Fan the eval stage out to processes, then replay the merge.

        The stage is :func:`~repro.rewrite.columnar.run_eval_batched`
        with the scoring moved to the pool: each chunk ships a slice of
        the stage's :class:`~repro.cuts.manager.CutColumns` (``leaves``
        and ``tt`` only), workers return units and winners, and the
        parent materializes each winning ``Candidate.cut`` from its own
        columns.  The replay stores candidates into ``ctx.prep_info``
        exactly as the simulated executor's does.  Small worklists stay
        in-parent, and so does a run with a custom ``ctx.library``
        (workers rebuild the lookup via ``get_library()``; the same rule
        as :func:`repro.core.shards.run_sharded`): the stage then scores
        in-process against ``ctx.library`` and the run warns once.
        """
        from ..library import get_library
        from ..rewrite.columnar import run_eval_batched

        def score(table):
            if len(items) < MIN_FANOUT:
                return None
            if ctx.library is not get_library():
                self._warn_fallback(
                    "eval fan-out needs the default structure library")
                return None
            roots = np.array(table.roots, dtype=np.int64)
            counts = np.array(table.counts, dtype=np.int64)
            starts = np.cumsum(counts) - counts
            parts = []
            for lo, hi in self._bounds(len(counts)):
                r0, r1 = starts[lo], starts[hi - 1] + counts[hi - 1]
                parts.append(_ColumnChunk(
                    roots[lo:hi], (starts[lo:hi] - r0, counts[lo:hi]),
                    (table.leaves[r0:r1], table.tt[r0:r1]),
                ))
            merged = self._fan_out(name, ctx.aig, ctx.config, parts,
                                   _eval_columns, nodes=len(items))
            if merged is None:
                return None
            first = dict(zip(table.roots, starts.tolist()))
            triples = []
            for roots, units, winners in merged:
                won = {cand.root: cand for cand in winners}
                for root, n_units in zip(roots.tolist(), units.tolist()):
                    cand = won.get(root)
                    if cand is not None:
                        cand.cut = table.cut(first[root] + cand.cut)
                    triples.append((root, cand, n_units))
            return triples

        return self._native_stage(run_eval_batched, name, items, ctx, score)

    # -- the shard fan-out --------------------------------------------

    def run_shards(self, aig, tasks, config, pass_index=0) -> List[tuple]:
        """Fan whole-shard rewrites out to pool workers.

        ``tasks`` are ``(index, Shard)`` pairs; the graph ships as the
        stage's snapshot ref and each chunk carries only a shard's var
        lists.  One shard per chunk: a shard is the unit of
        retry, quarantine and fault injection (stage name ``"shard"``
        in the fault plan — chunk coordinates are cumulative across
        seam-rotation passes, so ``mode@shard:N`` can target any pass's
        chunks), and the in-parent fallback recomputes it against the
        live graph with identical results.  ``pass_index`` labels the
        fan-out span for multi-pass telemetry.  Returns the
        ``(index, payload, units)`` triples, unordered.
        """
        index_base = self.shard_chunks_seen
        self.shard_chunks_seen += len(tasks)
        merged = self._fan_out(
            "shard", aig, config, [[task] for task in tasks],
            _shard_tasks, index_base=index_base, sim_span=False,
            shards=len(tasks), shard_pass=pass_index,
        )
        if merged is None:
            collector = _MetricCollector()
            merged = [_shard_tasks(aig, tasks, config, collector)]
            if self.obs.enabled:
                collector.replay_into(self.obs)
        return [triple for part in merged for triple in part]

    # -- the native enum stage ----------------------------------------

    def run_enum(self, name: str, items: Sequence[int], ctx) -> StageStats:
        """Fan cut enumeration out to processes, then replay the merge.

        The stage is :func:`~repro.rewrite.columnar.run_enum_batched`
        with wave 0's kernel call moved to the pool — within an enum
        stage the graph is read-only, so every planned merge is a pure
        function of the stage-start state.  The wave's fanin sets ship
        as rows
        (:meth:`~repro.cuts.manager.CutManager.export_tasks`), workers
        run the identical kernel against the snapshot, and each chunk's
        result rows are appended to the parent's arena in one copy as
        the plan's results, which the replay installs.  Later waves,
        and a wave 0 of fewer than ``MIN_FANOUT`` tasks, merge
        in-parent — byte-identical either way.
        """
        from ..rewrite.columnar import run_enum_batched

        cutman = ctx.cutman

        def merge(plan, tasks):
            if len(tasks) < MIN_FANOUT:
                return False
            cutman.compact(plan)  # only between fan-outs: offsets are live below
            parts = []
            for lo, hi in self._bounds(len(tasks)):
                vectors, rows = cutman.export_tasks(plan, tasks[lo:hi])
                parts.append(_ColumnChunk(vectors[0], vectors[1:], rows))
            merged = self._fan_out(name, ctx.aig, ctx.config, parts,
                                   _enum_columns, nodes=len(items))
            if merged is None:
                return False
            for roots, *columns in merged:
                cutman.import_blocks(plan, plan.tasks_of(roots), *columns)
            return True

        return self._native_stage(run_enum_batched, name, items, ctx, merge)
