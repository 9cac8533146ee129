"""Reference implementations the production kernels are pinned against.

Production has one enumerate/evaluate path: whole worklists merged and
scored as columnar batches, then replayed through the scheduler.  What
lives here is the other way to compute the same thing — one cut pair,
one cut, one root at a time, every ``Cut`` built — kept out of ``src/``
because nothing there calls it:

* :class:`ScalarCutManager` — the per-pair cut merge, the reference of
  ``CutManager._columnar_core``;
* :func:`reference_plan` — the enum-stage planner walked root by root,
  the reference of ``CutManager.plan_closures``' vector passes;
* :func:`eval_tasks_scalar` / :func:`make_eval_operator` — the per-cut
  scoring loop and the Section 4.3 generator operator around it, the
  references of ``eval_tasks_columnar`` and ``run_eval_batched``;
* :class:`ReferenceExecutor` — a simulated executor whose read stages
  run the Section 4.2/4.3 generator operators per root, and whose
  event loop finds conflicts by scanning every in-flight activity's
  lock intervals — the reference of ``SimulatedExecutor.run``'s lock
  table;
* :func:`reference_patches` / :func:`reference_rewrite` — the
  unchanged driver with those substituted;
* :func:`build_canon_lut_sweep` — the NPN canon LUT computed function
  by function over all 768 transforms, the reference of the
  class-by-class build in ``npn/canon.py``;
* :func:`lift_lut_sweep` — the lift LUT computed mask by mask over all
  65 536 tables, the reference of ``npn.truth.lift_lut``'s byte tables.

``tests/test_differential_fuzz.py`` holds every executor byte-identical
to :func:`reference_rewrite`; the kernel property tests compare against
the classes directly.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Generator, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.aig.literals import lit_compl, lit_var
from repro.core.dacpara import DACParaRewriter
from repro.core.operators import StageContext, make_enum_operator
from repro.cuts import CutManager
from repro.cuts.cut import Cut, cut_is_stamp_alive, trivial_cut
from repro.errors import CutError, SchedulerError
from repro.galois import Phase, simsched
from repro.galois.activity import Operator
from repro.galois.simsched import SimulatedExecutor, _item_args, _publish_stage
from repro.galois.stats import StageStats
from repro.npn.canon import _MATRICES, _OUT_FLAGS
from repro.npn.truth import CUT_LEAF_SENTINEL, expand, expand_map16, full_mask
from repro.rewrite.base import (
    WorkMeter,
    best_candidate_over_cuts,
    find_best_candidate,
)

_FULL_MASKS = tuple(full_mask(n) for n in range(5))


def append_cuts(cutman: CutManager, cuts: Sequence[Cut]) -> int:
    """Enter ``cuts`` as rows of ``cutman``'s arena (synced mirror);
    returns their offset."""
    pad = (int(cutman._life[0]),)
    sent = (CUT_LEAF_SENTINEL,)
    leaves = np.array([c.leaves + sent * (4 - c.size) for c in cuts],
                      dtype=np.int64).reshape(-1, 4)
    stamps = np.array([c.leaf_stamps + pad * (4 - c.size) for c in cuts],
                      dtype=np.int64).reshape(-1, 4)
    return cutman._arena.append(
        leaves, np.array([c.tt for c in cuts], dtype=np.int64), stamps,
        np.array([c.sign for c in cuts], dtype=np.uint64))


def load_entry(cutman: CutManager, var: int, cuts: Sequence[Cut]) -> None:
    """Make ``cuts`` the stamp-fresh entry of ``var`` (liveness left for
    the manager to verify)."""
    cutman._sync()
    cutman._write(var, append_cuts(cutman, cuts), len(cuts), -1)


class ScalarCutManager(CutManager):
    """Cut manager whose merge is the classic nested loop over the two
    fanin cut lists: identical cut sets, order and work charges, every
    set built as ``Cut`` objects (and kept as its entry's memo) before
    it is entered as arena rows."""

    def _merge_node(self, v: int):
        aig = self.aig
        f0, f1 = aig.fanin0(v), aig.fanin1(v)
        c0_all = self._live_cuts(lit_var(f0))
        c1_all = self._live_cuts(lit_var(f1))
        self.work += len(c0_all) * len(c1_all)
        cuts = self._merge_scalar(v, f0, f1, c0_all, c1_all)
        off = append_cuts(self, cuts)
        self._memo[v] = (off, cuts)
        return off, len(cuts)

    def _live_cuts(self, var: int) -> List[Cut]:
        self._sync()
        if self._tab[0, var] == -1:
            raise CutError(
                f"no cached cut set for node {var}: enumerate it first "
                f"(cuts()/install_cuts())"
            )
        cuts = self._materialize(var)
        if self._all_alive(var):
            return list(cuts)
        live = [c for c in cuts if cut_is_stamp_alive(self.aig, c)]
        return live if live else [trivial_cut(self.aig, var)]

    def _merge_scalar(self, v: int, f0: int, f1: int,
                      c0_all: List[Cut], c1_all: List[Cut]) -> List[Cut]:
        """The scalar merge body (work already charged by the caller)."""
        aig = self.aig
        comp0, comp1 = lit_compl(f0), lit_compl(f1)
        k = self.k
        results: List[Cut] = []
        for c0 in c0_all:
            for c1 in c1_all:
                dst = tuple(sorted(set(c0.leaves) | set(c1.leaves)))
                if len(dst) > k:
                    continue
                mask = _FULL_MASKS[len(dst)]
                t0 = expand(c0.tt, c0.leaves, dst)
                t1 = expand(c1.tt, c1.leaves, dst)
                if comp0:
                    t0 ^= mask
                if comp1:
                    t1 ^= mask
                stamps = tuple(aig.life_stamp(l) for l in dst)
                self._add_filtered(results, Cut(dst, t0 & t1 & mask, stamps))
        results.sort(key=lambda c: (-c.size, c.leaves))
        if self.max_cuts is not None and len(results) > self.max_cuts:
            results = results[: self.max_cuts]
        results.append(trivial_cut(aig, v))
        return results

    @staticmethod
    def _add_filtered(results: List[Cut], cut: Cut) -> None:
        """Insert with dominance filtering (no duplicate/superset cuts)."""
        sign = cut.sign
        keep: List[Cut] = []
        for existing in results:
            if (existing.sign & ~sign) == 0 and existing.dominates(cut):
                return  # an existing subset cut dominates the new one
            if (sign & ~existing.sign) == 0 and cut.dominates(existing):
                continue  # new cut dominates (drop the existing superset)
            keep.append(existing)
        keep.append(cut)
        results[:] = keep


def eval_tasks_scalar(aig_like, table, config, collector, library):
    """The scalar evaluation loop over a ``CutColumns`` table (every
    row materialized as a ``Cut``) — the reference the columnar engine's
    ``(root, candidate, units)`` triples and observer emissions must
    equal."""
    out = []
    row = 0
    for root, count in zip(table.roots, table.counts):
        cuts = [table.cut(i) for i in range(row, row + count)]
        row += count
        if aig_like.is_dead(root):
            out.append((root, None, -1))  # sentinel: skipped entirely
            continue
        meter = WorkMeter()
        candidate = best_candidate_over_cuts(
            aig_like, root, cuts, library, config, meter, observer=collector
        )
        out.append((root, candidate, meter.units))
    return out


def make_eval_operator(ctx: StageContext) -> Callable[[int], Generator[Phase, None, None]]:
    """Parallel evaluation (Section 4.3) — no locks at all.

    Uniqueness of evaluation data is guaranteed by construction: MFFC
    membership is computed against thread-local shadow reference counts
    (never the shared ones), library structures are immutable, and the
    strash probing is read-only.  The result lands in the activity's
    own ``prepInfo`` slot.
    """

    def operator(root: int) -> Generator[Phase, None, None]:
        aig = ctx.aig
        if aig.is_dead(root):
            return
        meter = WorkMeter()
        candidate = find_best_candidate(
            aig, root, ctx.cutman, ctx.library, ctx.config, meter,
            observer=ctx.observer,
        )
        ctx.meter.add(meter.units)
        yield Phase(locks=(), cost=meter.units + 1)
        ctx.prep_info.store(root, candidate)

    return operator


class ReferenceExecutor(SimulatedExecutor):
    """Simulated scheduler whose read stages in ``stages`` run one
    generator operator per root — no batch precompute, no replay — and
    whose :meth:`run` is the interval-scan event loop, sharing no
    conflict-detection code with production's lock table."""

    def __init__(self, workers: int, observer=None,
                 stages: Sequence[str] = ("enum", "eval")):
        super().__init__(workers, observer=observer)
        self.stages = stages

    def run_enum(self, name: str, items: Sequence[int], ctx) -> StageStats:
        if "enum" not in self.stages:
            return super().run_enum(name, items, ctx)
        return self.run(name, items, make_enum_operator(ctx))

    def run_eval(self, name: str, items: Sequence[int], ctx) -> StageStats:
        if "eval" not in self.stages:
            return super().run_eval(name, items, ctx)
        return self.run(name, items, make_eval_operator(ctx))

    def run(self, name: str, items: Sequence, operator: Operator) -> StageStats:
        """The event loop as it stood before the lock table: the in-flight
        list is rebuilt on every pop and every acquisition is checked
        against every in-flight activity's lock intervals."""
        start_wall = time.perf_counter()
        stage = StageStats(name=name, start_time=self.now, end_time=self.now)
        stage.activities = len(items)
        obs = self.obs
        span = None
        if obs.enabled:
            span = obs.begin(name, "stage", self.now, activities=len(items))
        worker_heap: List[Tuple[int, int]] = [(self.now, w) for w in range(self.workers)]
        heapq.heapify(worker_heap)
        ready = deque(items)
        retry: List[Tuple[int, int, object]] = []
        retry_counts: dict = {}
        seq = 0
        # In-flight: (end_time, [(acq_time, lockset), ...])
        inflight: List[Tuple[int, List[Tuple[int, frozenset]]]] = []

        while ready or retry:
            t, w = heapq.heappop(worker_heap)
            if retry and retry[0][0] <= t:
                rt, _, item = heapq.heappop(retry)
            elif ready:
                item = ready.popleft()
            else:
                rt, _, item = heapq.heappop(retry)
                t = max(t, rt)
            inflight = [e for e in inflight if e[0] > t]

            gen = operator(item)
            acc = 0
            intervals: List[Tuple[int, frozenset]] = []
            conflict_at: Optional[int] = None
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
                acq_time = t + acc
                if phase.locks:
                    holder_end = self._conflicting_holder(
                        inflight, acq_time, phase.locks
                    )
                    if holder_end is not None:
                        conflict_at = holder_end
                        break
                    intervals.append((acq_time, phase.locks))
                acc += phase.cost
            if conflict_at is not None:
                gen.close()
                stage.conflicts += 1
                stage.aborted_units += acc
                if obs.enabled:
                    track = self.track_offset + w + 1
                    obs.activity("abort", name, t, t + acc, track,
                                 **_item_args(item))
                    obs.instant("conflict", name, t + acc, track)
                count = retry_counts.get(id(item), 0) + 1
                retry_counts[id(item)] = count
                stage.retries += 1
                if count > simsched.MAX_RETRIES:
                    raise SchedulerError(
                        f"activity retried more than {simsched.MAX_RETRIES} times"
                    )
                # Linear backoff on repeat losers: hot-spot contention
                # (many activities fighting over one hub lock) would
                # otherwise re-execute the whole pack once per commit.
                backoff = (count - 1) * max(acc, 1)
                seq += 1
                heapq.heappush(retry, (max(conflict_at, t + acc) + backoff, seq, item))
                heapq.heappush(worker_heap, (t + acc, w))
                stage.end_time = max(stage.end_time, t + acc)
                continue
            end = t + acc
            stage.committed += 1
            stage.useful_units += acc
            if obs.enabled:
                obs.activity("commit", name, t, end, self.track_offset + w + 1,
                             cost=acc, **_item_args(item))
            if intervals:
                inflight.append((end, intervals))
            heapq.heappush(worker_heap, (end, w))
            stage.end_time = max(stage.end_time, end)

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

    @staticmethod
    def _conflicting_holder(
        inflight: List[Tuple[int, List[Tuple[int, frozenset]]]],
        acq_time: int,
        want: frozenset,
    ) -> Optional[int]:
        """End time of an in-flight activity holding an intersecting
        lock at ``acq_time``, or None."""
        for end, intervals in inflight:
            if end <= acq_time:
                continue
            for other_acq, locks in intervals:
                if other_acq <= acq_time and locks & want:
                    return end
        return None


def reference_plan(cutman: CutManager, roots: Sequence[int]) -> dict:
    """The enum-stage planner as one walk per root — the form whose
    per-root test ``CutManager.plan_closures`` applies in vector passes:
    ``plan[v] = (wave, f0, f1)`` for every merge the stage needs (wave 0:
    both fanin sets stable), ``None`` for an order-dependent one."""
    aig = cutman.aig
    cutman._sync()
    plan: dict = {}
    for root in roots:
        stack = [] if aig.is_dead(root) else [root]
        while stack:
            v = stack[-1]
            if v in plan or not aig.is_and(v) or cutman.has_fresh_live_cuts(v):
                stack.pop()
                continue
            f0, f1 = aig.fanin0(v), aig.fanin1(v)
            wave, stable, first = 0, [], []
            for fv in (lit_var(f0), lit_var(f1)):
                s = cutman._stage_input(fv)
                if s is None and fv not in plan:
                    first.append(fv)
                elif s is None and plan[fv] is None:
                    s = False
                elif s is None:
                    wave = max(wave, plan[fv][0] + 1)
                stable.append(s)
            if False in stable:
                plan[v] = None
            elif first:
                stack.extend(first)
                continue
            else:
                plan[v] = (wave, f0, f1)
            stack.pop()
    return plan


@contextmanager
def reference_patches(stages: Sequence[str] = ("enum", "eval")):
    """Inside, a ``DACParaRewriter`` runs the unchanged driver with the
    reference substituted for each stage in ``stages`` (``"enum"``:
    :class:`ScalarCutManager` and the per-root enum operator;
    ``"eval"``: the per-root eval operator) on simulated workers."""

    def executor(kind, n_workers, observer=None):
        return ReferenceExecutor(n_workers, observer=observer, stages=stages)

    cutman = ScalarCutManager if "enum" in stages else CutManager
    with mock.patch("repro.core.dacpara.make_executor", executor), \
            mock.patch("repro.core.dacpara.CutManager", cutman):
        yield


def reference_rewrite(aig, config, workers: int,
                      stages: Sequence[str] = ("enum", "eval"), library=None):
    """Rewrite ``aig`` in place at ``workers`` simulated workers under
    :func:`reference_patches`.  Returns the ``RewriteResult``."""
    with reference_patches(stages):
        engine = DACParaRewriter(
            config=config.with_workers(workers), library=library)
        return engine.run(aig)


def build_canon_lut_sweep() -> Tuple[np.ndarray, np.ndarray]:
    """The canon LUT by one vectorized sweep over all 768 transforms x
    65536 functions — the reference of ``npn.canon._build_canon_lut``'s
    orbit enumeration.

    Updates on strict improvement only, so the stored witness is the
    *first* row achieving the minimum — the same tie-break as
    ``argmin`` in the exhaustive search.
    """
    funcs = np.arange(65536, dtype=np.uint32)
    cols = [((funcs >> np.uint32(j)) & np.uint32(1)) for j in range(16)]
    best = funcs.copy()  # row 0 is the identity transform
    rows = np.zeros(65536, dtype=np.uint16)
    acc = np.empty(65536, dtype=np.uint32)
    for row in range(1, 768):
        mat = _MATRICES[row]
        acc[:] = cols[int(mat[0])]
        for k in range(1, 16):
            acc |= cols[int(mat[k])] << np.uint32(k)
        acc ^= np.uint32(_OUT_FLAGS[row])
        better = acc < best
        best[better] = acc[better]
        rows[better] = row
    return best, rows


def lift_lut_sweep() -> np.ndarray:
    """The lift LUT by one sweep per union mask over all 65 536 tables
    — the reference of ``npn.truth.lift_lut``'s two byte tables."""
    tts = np.arange(1 << 16, dtype=np.uint32)
    lut = np.empty((1 << 16, 16), dtype=np.uint16)
    for m in range(16):
        mapping = expand_map16(tuple(p for p in range(4) if (m >> p) & 1))
        col = np.zeros(1 << 16, dtype=np.uint32)
        for k, j in enumerate(mapping):
            col |= ((tts >> np.uint32(j)) & np.uint32(1)) << np.uint32(k)
        lut[:, m] = col
    return lut
