"""Process pool for shard-parallel rewriting: the one home of multi-core
wall-clock in this repository.

A sharded run (:func:`repro.core.shards.run_sharded`) plans
TFI/TFO-disjoint regions and hands each pass's shards to
:meth:`ProcessExecutor.run_shards`:

1. the parent ships the graph as a stage ref
   (:mod:`repro.galois.shipper`) — the pickle of a full
   :class:`~repro.aig.snapshot.AigSnapshot` capture on the first pass
   or after heavy mutation, otherwise an incremental
   :class:`~repro.aig.snapshot.SnapshotDelta` against the base snapshot
   the workers cache per run;
2. every shard is one chunk carrying only its var lists: a worker
   extracts the shard's sub-AIG from the snapshot and runs the whole
   DACPara pipeline on it (:func:`~repro.core.shards.rewrite_shard`,
   simulated executor inside), so a payload is a pure function of the
   graph and the shard;
3. the payloads come back unordered and the caller splices them in
   shard-index order.

The level pipeline never leaves the parent: :class:`ProcessExecutor`
is the stage executor of ``executor="process"``, and the enumerate /
evaluate / replace stages of an unsharded run (or of the boundary
cleanup) run on its simulated scheduler exactly as under
``"simulated"``; its pool starts only when a sharded run fans shards
out (DESIGN.md §4i).

When the platform cannot spawn processes (restricted sandboxes), the
pool computes the shards in-parent — same payloads, no parallelism —
and says so via ``warnings`` once *per run* (each pool instance carries
a run id, so two runs in one interpreter each report their own
fallback).

Fault tolerance is *chunk-grained*: a shard chunk that raises, returns
a corrupted result, or times out is retried with capped exponential
backoff and — only as a last resort — computed in-parent and recorded
on the pool's quarantine list, while every other shard still completes
on worker cores.  A dead pool (``BrokenProcessPool``) is restarted a
bounded number of times instead of being abandoned for the rest of the
run.  The policy's constants and the fault-injection hook that tests it
(``REPRO_FAULT_PLAN`` / ``config.fault_plan``) live in
:mod:`repro.galois.faults`.  Because every recovery path reproduces the
exact payload a healthy worker would have returned, a sharded process
run stays byte-identical to the sequential sharded run under any
combination of faults.

Observability is wall-clock and side-channel only: when the attached
observer carries a ``wall`` timeline, every chunk carries a
:class:`~repro.obs.wall.ChunkTelemetry` record back from its worker —
wall-clock spans for snapshot patch and compute, merged parent-side
with the submit/receive timestamps into per-pid tracks on the
observer's :class:`~repro.obs.collect.WallTimeline`, along with
``chunk_wall_seconds{stage,phase}`` histograms, pool occupancy gauges,
fault instants and a bounded flight-recorder ring dumped on
quarantine or pool restart.  With the no-op observer none of this is
allocated, and results never depend on it.
"""

from __future__ import annotations

import itertools
import os
import time
import warnings
from collections import deque
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Dict, List, Optional, Tuple

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

#: The fan-out's coordinate in the fault plan (``mode@shard:N``) and
#: its ``stage`` label on every pool metric.
STAGE = "shard"

_RUN_COUNTER = itertools.count(1)


def default_jobs() -> int:
    """Worker process count: one per core."""
    return max(1, os.cpu_count() or 1)


class ChunkResultError(Exception):
    """A worker returned a result list that does not answer the tasks
    it was handed (wrong length, wrong shard indices) — treated exactly
    like a worker-side exception: retry, then quarantine."""


def _validate_chunk(tasks, results: object):
    """Check a worker's answer actually answers ``tasks``: as many
    ``(index, payload, units)`` triples as ``(index, shard)`` tasks, in
    task order.

    The splice is keyed by shard index, so an undetected misalignment
    would silently corrupt the merge; shape mismatches instead surface
    as :class:`ChunkResultError` and take the retry path.
    """
    if not isinstance(results, list) or len(results) != len(tasks):
        raise ChunkResultError(
            f"chunk returned {len(results) if isinstance(results, list) else type(results).__name__} "
            f"results for {len(tasks)} tasks"
        )
    for task, entry in zip(tasks, results):
        if not isinstance(entry, tuple) or len(entry) != 3 or entry[0] != task[0]:
            raise ChunkResultError(
                f"chunk result {entry!r} does not answer task {task[0]}"
            )
    return results


class _MetricCollector(Observer):
    """Order-insensitive metric sink used inside pool workers.

    Counters and histogram observations recorded against the snapshot
    are replayed into the parent's observer after the fan-in, in an
    order that does not depend on which worker finished first.
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
# Worker entry point
# ---------------------------------------------------------------------------


def _shard_tasks(aig_like, tasks, config, collector) -> List[Tuple[int, object, int]]:
    """Run the full rewrite pipeline on each ``(index, shard)`` task.

    Runs identically against the live graph (in-parent fallback) or a
    snapshot (worker side): the per-shard rewrite is deterministic, so
    every recovery path reproduces the exact payload a healthy worker
    would have returned.  Returns ``(index, payload, work-units)``
    triples.
    """
    from ..core.shards import rewrite_shard

    out: List[Tuple[int, object, int]] = []
    for index, shard in tasks:
        payload = rewrite_shard(aig_like, shard, config)
        collector.count("shard_runs_total")
        out.append((index, payload, payload["counters"]["work_units"]))
    return out


def _run_chunk(ref, tasks, config, fault: Optional[str] = None,
               telemetry: Optional[tuple] = None):
    """The worker entry point: resolve the snapshot and rewrite one
    chunk of shards.  ``telemetry`` is ``(stage, chunk, attempt)`` — the
    fan-out coordinates only the parent knows — or None when the
    observer is the no-op (no record is then allocated).
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
    out = _shard_tasks(snapshot, tasks, config, collector)
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
    """One chunk of a shard fan-out, carrying its retry provenance.

    ``index`` is the chunk's coordinate (the fault plan's and the
    quarantine list's coordinate system, cumulative across the passes
    of a run).  ``ref`` is the snapshot ref every submission of this
    chunk ships and ``kind`` the label its bytes are counted under: the
    pass's, or the self-contained ``refill`` after a worker-side cache
    miss.
    """

    __slots__ = ("index", "tasks", "ref", "kind", "attempts", "refills")

    def __init__(self, index: int, tasks, ref: tuple, kind: str):
        self.index = index
        self.tasks = tasks
        self.ref = ref
        self.kind = kind
        self.attempts = 0
        self.refills = 0


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class ProcessExecutor(SimulatedExecutor):
    """Simulated scheduler plus the shard fan-out's worker pool.

    ``workers`` is the *logical* worker count of the simulated timeline
    (the paper's parallelism model); ``jobs`` is the number of OS
    worker processes that rewrite shards (defaults to the core count).
    The pool starts on the first :meth:`run_shards` call, never for the
    level stages.
    """

    # A level's read stages are the simulated scheduler's, bound under
    # this class's own name so a per-class profile tells a process
    # run's level pipeline apart (benchmarks/ladder/spans.py times
    # these two names).
    run_enum = SimulatedExecutor.run_enum
    run_eval = SimulatedExecutor.run_eval

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
        # One pool = one run: refs are keyed by this id in the worker
        # caches, and fallback warnings are scoped to it.
        self.run_id = f"{os.getpid():x}-{next(_RUN_COUNTER)}"
        self._fallback_warned = False
        self._shipper = _SnapshotShipper(self.run_id)
        self.snapshot_bytes_total = 0
        self.shipped_bytes: Dict[str, int] = {}
        self.cache_refills = 0
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
        self.quarantined: List[int] = []  # chunk coordinates
        self._fault_plan: Optional[faults.FaultPlan] = None
        self._fault_plan_spec: Optional[str] = None

    # -- pool management ----------------------------------------------

    def _warn_fallback(self, why: str) -> None:
        """Warn that this run degraded to in-parent computation.

        Scoped per run: the run id in the message keeps Python's
        warning registry from deduplicating one run's fallback against
        another's, and the instance flag keeps one run from warning on
        every pass.
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
        slate via its own instance).
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

    # -- fan-out plumbing ---------------------------------------------

    def _account_bytes(self, kind: str, nbytes: int) -> None:
        self.snapshot_bytes_total += nbytes
        self.shipped_bytes[kind] = self.shipped_bytes.get(kind, 0) + nbytes
        obs = self.obs
        if obs.enabled:
            obs.count("snapshot_bytes_shipped_total", nbytes, stage=STAGE,
                      kind=kind)

    def _get_fault_plan(self, config) -> Optional[faults.FaultPlan]:
        spec = config.fault_plan or os.environ.get("REPRO_FAULT_PLAN")
        if spec != self._fault_plan_spec:
            self._fault_plan_spec = spec
            self._fault_plan = faults.FaultPlan.parse(spec)
        return self._fault_plan

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
        """Compute one chunk in-parent (against the live graph) — the
        rest of the fan-out still completes on worker cores."""
        self.chunk_fallbacks += 1
        if self.obs.enabled:
            self.obs.count("chunk_fallback_total")
        return fallback(job.tasks, collector)

    def _record_failure(self, job, retry, fallback, collector, merged,
                        wall=None) -> None:
        """Route one failed chunk: retry with backoff while its budget
        lasts, then quarantine and degrade."""
        progress = self.obs.progress
        job.attempts += 1
        if job.attempts <= faults.CHUNK_MAX_RETRIES:
            self.chunk_retries += 1
            if self.obs.enabled:
                self.obs.count("chunk_retries_total", stage=STAGE)
            self._wall_instant(wall, "chunk_retry", stage=STAGE,
                               chunk=job.index, attempt=job.attempts)
            if progress is not None:
                progress.bump("retries")
            retry.append(job)
            return
        # Poison chunk: every retry exhausted.  Record the coordinate,
        # surface it through the observer, and compute the chunk
        # in-parent so the pass still completes exactly.
        self.quarantined.append(job.index)
        if self.obs.enabled:
            self.obs.count("quarantined_chunks_total")
            self.obs.instant(
                "chunk_quarantined", "fault", 0,
                stage=STAGE, chunk=job.index, tasks=len(job.tasks),
            )
        self._wall_instant(wall, "chunk_quarantined", stage=STAGE,
                           chunk=job.index, tasks=len(job.tasks))
        if wall is not None:
            wall.dump_flight("chunk_quarantined", stage=STAGE,
                             chunk=job.index)
        merged.append(self._degrade_chunk(job, fallback, collector))

    def _collect_chunks(self, pool, ref, ref_kind, parts, config, collector,
                        aig, index_base=0):
        """Submit all chunks and fan results back in, fault-tolerantly:
        the list of per-chunk results, in completion order.

        Failure handling is chunk-grained: a worker that misses its
        cached base snapshot is refilled; a chunk that raises or
        returns a corrupted result retries with capped exponential
        backoff and is quarantined (and computed in-parent against the
        live ``aig``) as a last resort; a chunk that outlives
        ``config.chunk_timeout_seconds`` degrades in-parent immediately
        and the wedged pool is restarted; a ``BrokenProcessPool``
        restarts the pool (within ``faults.POOL_RESTART_BUDGET``) and
        resubmits the chunks that died with it.  Every path reproduces
        the exact payload a healthy worker would have returned.
        Snapshot bytes are counted per submission — a retried or
        resubmitted chunk ships its ref again.
        """
        merged: list = []

        def fallback(tasks, coll):
            return _shard_tasks(aig, tasks, config, coll)

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
                fault = plan.arm(STAGE, job.index) if plan is not None else None
                tele_args = (
                    (STAGE, job.index, job.attempts) if wall is not None
                    else None
                )
                try:
                    future = pool.submit(
                        _run_chunk, job.ref, job.tasks, config, fault,
                        tele_args,
                    )
                except Exception:
                    # The pool died between rounds (broken or shut
                    # down): requeue this job and restart below.
                    pool_dead = True
                    queue.appendleft(job)
                    break
                inflight.append((job, future, time.time()))
                self._account_bytes(job.kind, _ref_nbytes(job.ref))
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
                                        stage=STAGE, phase=phase)
                        if progress is not None:
                            progress.bump("chunks")
                    _validate_chunk(job.tasks, part_results)
                    merged.append(part_results)
                    collector.merge(part_collector)
                except SnapshotCacheMiss:
                    # Fresh worker without this run's base: resubmit
                    # self-contained.  Not a failure — unless the
                    # self-contained payload misses too.
                    if job.refills >= 1:
                        self._record_failure(
                            job, retry, fallback, collector, merged, wall,
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
                    # the hung process cannot poison later passes.
                    self.chunk_timeouts += 1
                    if self.obs.enabled:
                        self.obs.count("chunk_timeouts_total")
                    self._wall_instant(wall, "chunk_timeout", stage=STAGE,
                                       chunk=job.index,
                                       deadline_seconds=timeout)
                    wedged = True
                    merged.append(self._degrade_chunk(job, fallback, collector))
                except _BrokenPool:
                    pool_dead = True
                    self._record_failure(
                        job, retry, fallback, collector, merged, wall,
                    )
                except Exception:
                    # Worker-side raise (injected or real) or a
                    # corrupted result list caught by the validator.
                    self._record_failure(
                        job, retry, fallback, collector, merged, wall,
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

    def _fan_out(self, aig, config, tasks, index_base, pass_index):
        """Ship the graph's stage ref with one chunk per shard task and
        fan the per-chunk results back in (completion order).  Returns
        None when there is no pool to fan out to — never started, or
        lost to a whole-pass failure — and the caller computes
        in-parent instead."""
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
                pool, ref, ref_kind, [[task] for task in tasks], config,
                collector, aig, index_base=index_base,
            )
        except (OSError, MemoryError) as exc:
            # Last-resort whole-pass degradation (fork limit, OOM
            # during submission) — per-chunk faults never get here.
            self._warn_fallback(f"process fan-out failed ({exc})")
            self._pool_broken = True
            self.close()
            return None
        if obs.enabled:
            # The ref rides every submission: chunks, retries, refills.
            obs.observe("snapshot_bytes",
                        self.snapshot_bytes_total - shipped_before)
            collector.replay_into(obs)
            obs.observe(f"{STAGE}_fanout_wall_seconds",
                        time.perf_counter() - start_wall)
            wall = self._wall()
            if wall is not None:
                wall.parent_span(
                    f"{STAGE}_fanout", start_time, time.time(), stage=STAGE,
                    chunks=len(tasks), jobs=self.jobs, shards=len(tasks),
                    shard_pass=pass_index,
                )
                self._update_pool_gauges(wall)
        return merged

    # -- the shard fan-out --------------------------------------------

    def run_shards(self, aig, tasks, config, pass_index=0) -> List[tuple]:
        """Fan whole-shard rewrites out to pool workers.

        ``tasks`` are ``(index, Shard)`` pairs; the graph ships as the
        pass's snapshot ref and each chunk carries only a shard's var
        lists.  One shard per chunk: a shard is the unit of retry,
        quarantine and fault injection (stage name ``"shard"`` in the
        fault plan — chunk coordinates are cumulative across
        seam-rotation passes, so ``mode@shard:N`` can target any pass's
        chunks), and the in-parent fallback recomputes it against the
        live graph with identical results.  ``pass_index`` labels the
        fan-out span for multi-pass telemetry.  Returns the
        ``(index, payload, units)`` triples, unordered.
        """
        index_base = self.shard_chunks_seen
        self.shard_chunks_seen += len(tasks)
        merged = self._fan_out(aig, config, tasks, index_base, pass_index)
        if merged is None:
            collector = _MetricCollector()
            merged = [_shard_tasks(aig, tasks, config, collector)]
            if self.obs.enabled:
                collector.replay_into(self.obs)
        return [triple for part in merged for triple in part]
