"""Reference implementations the production kernels are pinned against.

Production has one enumerate/evaluate path: whole worklists merged and
scored as columnar batches, then replayed through the scheduler (the
baseline engines score one-root batches).  What lives here is the other
way to compute the same thing — one cut pair, one cut, one root at a
time, every ``Cut`` built — kept out of ``src/`` because nothing there
calls it:

* :class:`ScalarCutManager` — the per-pair cut merge, the reference of
  ``CutManager._columnar_core``;
* :func:`reference_plan` — the enum-stage planner walked root by root,
  the reference of ``CutManager.plan_closures``' vector passes;
* :func:`best_candidate_over_cuts` — the per-cut selection loop over
  ``evaluate_candidate``, the reference of ``eval_tasks_columnar``;
  :func:`reference_find_best_candidate` runs it on one root's cut set
  (the reference of ``find_best_candidate``, the baseline engines'
  selector), :func:`eval_tasks_scalar` over a cut table, and
  :func:`make_eval_operator` inside the Section 4.3 generator operator
  (the reference of ``run_eval_batched``);
* :func:`make_enum_operator` — the Section 4.2 generator operator
  around ``enum_phase``, the reference of ``run_enum_batched``;
* :class:`ReferenceExecutor` — a simulated executor whose read stages
  run the Section 4.2/4.3 generator operators per root, and whose
  event loop finds conflicts by scanning every in-flight activity's
  lock intervals — the reference of ``SimulatedExecutor.run``'s lock
  table;
* :func:`reference_patches` / :func:`reference_rewrite` — the
  unchanged driver with those substituted, and
  :func:`reference_selector_patches` — the unchanged baseline engines
  with the reference selector substituted; both switch the columnar
  eval kernel off (:func:`kernel_off`);
* :func:`build_canon_lut_sweep` — the NPN canon LUT computed function
  by function over all 768 transforms, the reference of the
  class-by-class build in ``npn/canon.py``;
* :func:`build_transforms_loop` and :func:`build_canon_lut_orbits` —
  the transform table a minterm at a time and the LUT an orbit at a
  time (a scatter per class, a full-width search for the next
  minimum), the references of ``npn/canon.py``'s vector transform
  build and its one-matvec-per-class LUT build;
* :func:`npn_canon_batch_rows` — canonical tables and witness rows of
  a truth-table array, the batch form of ``npn_canon`` the columnar
  kernel's class counts are checked against;
* :func:`lift_lut` — the lift as one composed ``(65536, 16)`` table,
  every row the OR of ``npn.truth.lift_bytes``' two byte rows, and
  :func:`lift_lut_sweep` — the same table computed mask by mask over
  all 65 536 tables, the reference of those byte tables;
* :func:`reference_and` — ``Aig.and_`` as the chain of helpers it
  inlines (``_check_lit``, ``_fold_trivial``, ``_alloc`` and its
  ``_bump_stamp``, the one journal entry), the reference of its state;
* :func:`reference_write_aig` / :func:`reference_read_aig` — the binary
  AIGER writer and reader a byte and a literal at a time, the
  references of ``aig.io_aiger``'s vector varint codec.

``tests/test_differential_fuzz.py`` holds every executor byte-identical
to :func:`reference_rewrite` and every baseline engine to its run under
:func:`reference_selector_patches`; the kernel property tests compare
against the classes directly.
"""

from __future__ import annotations

import heapq
import itertools
import os
import time
from collections import deque
from contextlib import ExitStack, contextmanager
from typing import (BinaryIO, Callable, Dict, Generator, List, Optional,
                    Sequence, Tuple, Union)
from unittest import mock

import numpy as np

from repro.aig.graph import KIND_AND, Aig, strash_key
from repro.aig.io_aiger import _literals, _parse_header_counts
from repro.aig.literals import lit_compl, lit_var, make_lit
from repro.config import RewriteConfig
from repro.core.dacpara import DACParaRewriter
from repro.core.operators import StageContext, enum_phase
from repro.cuts import CutManager
from repro.cuts.cut import Cut, cut_is_stamp_alive, trivial_cut
from repro.errors import AigerFormatError, CutError, SchedulerError
from repro.galois import Phase, simsched
from repro.galois.activity import Operator
from repro.galois.simsched import SimulatedExecutor, _item_args, _publish_stage
from repro.galois.stats import StageStats
from repro.library import StructureLibrary
from repro.npn import ensure_canon_lut, npn_canon
from repro.npn.canon import _MATRICES, _OUT_FLAGS, _POW2, NpnTransform
from repro.npn.truth import expand, expand_map16, full_mask, lift_bytes
from repro.rewrite.base import (
    Candidate,
    WorkMeter,
    cut_tt4,
    evaluate_candidate,
)

_FULL_MASKS = tuple(full_mask(n) for n in range(5))


def append_cuts(cutman: CutManager, cuts: Sequence[Cut]) -> int:
    """Enter ``cuts`` as rows of ``cutman``'s arena; returns their
    offset.  A pad lane is var 0 with var 0's life stamp."""
    pad_stamp = cutman.aig.life_stamp(0)
    leaves, tt, stamps, sign = cutman._arena.block(len(cuts))
    if cuts:  # a (0, 4) column takes no empty list
        leaves[:] = [c.leaves + (0,) * (4 - c.size) for c in cuts]
        stamps[:] = [c.leaf_stamps + (pad_stamp,) * (4 - c.size) for c in cuts]
        tt[:] = [c.tt for c in cuts]
        sign[:] = [c.sign for c in cuts]
    return cutman._arena.append(leaves, tt, stamps, sign)


def load_entry(cutman: CutManager, var: int, cuts: Sequence[Cut]) -> None:
    """Make ``cuts`` the stamp-fresh entry of ``var`` (liveness left for
    the manager to verify)."""
    cutman._fit()
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
        self._fit()
        if self._tab[0, var] == -1:
            raise CutError(
                f"no cached cut set for node {var}: enumerate it first "
                f"(cuts()/install_cuts())"
            )
        cuts = self._materialize(var)
        if self._live(var):
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


def best_candidate_over_cuts(
    aig: Aig,
    root: int,
    cuts,
    library: StructureLibrary,
    config: RewriteConfig,
    meter: Optional[WorkMeter] = None,
    observer=None,
) -> Optional[Candidate]:
    """Best replacement for ``root`` over an explicit cut list.

    The cut list is whatever the enumeration stage produced; ``aig``
    is only read (fanins, refs, levels, strash probes).
    """
    allowed = config.allowed_classes
    observing = observer is not None and observer.enabled
    num_cuts = 0
    best: Optional[Candidate] = None
    best_key = None
    for cut in cuts:
        num_cuts += 1
        if cut.size < 2:
            continue
        canon, transform = npn_canon(cut_tt4(cut))
        if canon not in allowed:
            if observing:
                observer.count("npn_class_misses_total")
            continue
        if observing:
            observer.count("npn_class_hits_total", cls=f"{canon:04x}")
        structures = library.structures(canon)
        if config.max_structs is not None:
            structures = structures[: config.max_structs]
        for structure in structures:
            evaluation = evaluate_candidate(aig, root, cut, structure, transform, meter)
            if evaluation is None:
                continue
            if config.preserve_level and evaluation.new_root_level > aig.level(root):
                continue
            key = (evaluation.gain, -evaluation.added, -evaluation.new_root_level)
            if best_key is None or key > best_key:
                best_key = key
                best = Candidate(
                    root=root,
                    root_stamp=aig.stamp(root),
                    root_life=aig.life_stamp(root),
                    cut=cut,
                    canon_tt=canon,
                    transform=transform,
                    structure=structure,
                    gain=evaluation.gain,
                    new_root_level=evaluation.new_root_level,
                )
    if observing:
        observer.observe("cuts_per_node", num_cuts)
    if best is None:
        return None
    if best.gain > 0 or (config.zero_gain and best.gain == 0):
        if observing:
            observer.observe("gain", best.gain)
        return best
    return None


def reference_find_best_candidate(aig, root, cutman, library, config,
                                  meter=None, observer=None):
    """``repro.rewrite.find_best_candidate`` as the per-cut loop over
    ``root``'s materialized cut set — the reference of the one-root
    kernel call the baseline engines select through."""
    return best_candidate_over_cuts(
        aig, root, cutman.fresh_cuts(root), library, config, meter, observer
    )


def kernel_off():
    """A patch under which any call into the columnar eval kernel fails:
    the eval references must never score through it."""
    return mock.patch(
        "repro.rewrite.columnar.eval_tasks_columnar",
        side_effect=AssertionError("a reference reached eval_tasks_columnar"))


@contextmanager
def reference_selector_patches():
    """Inside, the ABC, ICCAD'18 and GPU engines select every candidate
    through :func:`reference_find_best_candidate`, and the columnar
    kernel is off."""
    with ExitStack() as stack:
        stack.enter_context(kernel_off())
        for module in ("serial", "lockfused", "static_gpu"):
            stack.enter_context(mock.patch(
                f"repro.rewrite.{module}.find_best_candidate",
                reference_find_best_candidate))
        yield


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


def make_enum_operator(ctx: StageContext) -> Callable[[int], Generator[Phase, None, None]]:
    """Parallel cut enumeration (Section 4.2).

    Locks the node and the leaves its cuts reach: transitive-fanin
    relations inside a drifted worklist would otherwise let two
    activities race on the shared recursive enumeration.  The stage is
    cheap, so these conflicts cost little (as the paper argues).
    """

    def operator(root: int) -> Generator[Phase, None, None]:
        if not ctx.aig.is_dead(root):
            yield enum_phase(ctx.cutman, root)

    return operator


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
        candidate = reference_find_best_candidate(
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
    cutman._fit()
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
    ``"eval"``: the per-root eval operator, with the columnar kernel
    off) on simulated workers."""

    def executor(kind, n_workers, observer=None):
        return ReferenceExecutor(n_workers, observer=observer, stages=stages)

    cutman = ScalarCutManager if "enum" in stages else CutManager
    with ExitStack() as stack:
        stack.enter_context(
            mock.patch("repro.core.dacpara.make_executor", executor))
        stack.enter_context(
            mock.patch("repro.core.dacpara.CutManager", cutman))
        if "eval" in stages:
            stack.enter_context(kernel_off())
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


def build_transforms_loop() -> Tuple[List[NpnTransform], np.ndarray, np.ndarray]:
    """All 768 transforms and their minterm source-index matrices, a
    minterm and an input at a time — the reference of
    ``npn.canon._build_transforms``."""
    transforms: List[NpnTransform] = []
    matrices = np.empty((768, 16), dtype=np.uint8)
    out_flags = np.empty(768, dtype=np.uint16)
    row = 0
    for perm in itertools.permutations(range(4)):
        for neg_mask in range(16):
            for out_neg in (False, True):
                transforms.append(NpnTransform(perm, neg_mask, out_neg))
                for k in range(16):
                    j = 0
                    for i in range(4):
                        bit = ((k >> i) & 1) ^ ((neg_mask >> i) & 1)
                        j |= bit << perm[i]
                    matrices[row, k] = j
                out_flags[row] = 0xFFFF if out_neg else 0
                row += 1
    return transforms, matrices, out_flags


def build_canon_lut_orbits() -> Tuple[np.ndarray, np.ndarray]:
    """The canon LUT one orbit per class: scatter the class minimum's
    bits into its 768 pre-images, then search all 65 536 entries for
    the next unassigned function — the reference of
    ``npn.canon._build_canon_lut``'s matvec and forward scan."""
    unassigned = np.uint32(65536)
    canon = np.full(65536, unassigned, dtype=np.uint32)
    rows = np.zeros(65536, dtype=np.uint16)
    targets = _MATRICES.astype(np.intp)
    out_bits = (_OUT_FLAGS & 1).astype(np.uint32)[:, None]
    shifts = np.arange(16, dtype=np.uint32)
    pre_bits = np.empty((768, 16), dtype=np.uint32)
    f = 0
    while canon[f] == unassigned:
        # T_r(g)[k] = g[mat[r, k]] ^ out_r = f[k]: scatter f's bits.
        bits = (np.uint32(f) >> shifts) & np.uint32(1)
        np.put_along_axis(pre_bits, targets, bits ^ out_bits, axis=1)
        members, first_row = np.unique(pre_bits @ _POW2, return_index=True)
        canon[members] = f
        rows[members] = first_row
        # First function still unassigned; 0 (assigned) once none is.
        f = int(np.argmax(canon == unassigned))
    return canon, rows


def npn_canon_batch_rows(tts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical representatives *and* witness rows for an array of
    truth tables (two LUT gathers); a row indexes
    ``npn.canon._TRANSFORMS``, the objects :func:`npn_canon` returns."""
    canon, rows = ensure_canon_lut()
    idx = np.asarray(tts, dtype=np.uint32) & np.uint32(0xFFFF)
    return canon[idx], rows[idx]


def lift_lut() -> np.ndarray:
    """The lift as one ``(65536, 16)`` ``uint16`` table: ``lut[tt, m]``
    is ``tt`` with its variables moved to the set bit positions of
    ``m``, the OR of ``lift_bytes()``'s low-byte row ``tt & 255`` and
    high-byte row ``256 + (tt >> 8)`` (2 MB, which the merge kernel
    never builds)."""
    lo, hi = lift_bytes().reshape(2, 256, 16)
    # Row ``tt = h * 256 + l`` of the outer OR is ``hi[h] | lo[l]``.
    return (hi[:, None] | lo[None, :]).reshape(1 << 16, 16)


def lift_lut_sweep() -> np.ndarray:
    """The lift LUT by one sweep per union mask over all 65 536 tables
    — the reference of ``npn.truth.lift_bytes``' byte tables (through
    :func:`lift_lut`)."""
    tts = np.arange(1 << 16, dtype=np.uint32)
    lut = np.empty((1 << 16, 16), dtype=np.uint16)
    for m in range(16):
        mapping = expand_map16(tuple(p for p in range(4) if (m >> p) & 1))
        col = np.zeros(1 << 16, dtype=np.uint32)
        for k, j in enumerate(mapping):
            col |= ((tts >> np.uint32(j)) & np.uint32(1)) << np.uint32(k)
        lut[:, m] = col
    return lut


def reference_and(aig: Aig, f0: int, f1: int) -> int:
    """``aig.and_(f0, f1)`` one helper call at a time."""
    aig._check_lit(f0)
    aig._check_lit(f1)
    folded = aig._fold_trivial(f0, f1)
    if folded >= 0:
        return folded
    if f0 > f1:
        f0, f1 = f1, f0
    hit = aig._strash.get(strash_key(f0, f1), -1)
    if hit >= 0:
        return make_lit(hit)
    var = aig._alloc(KIND_AND)
    aig._fanin0[var] = f0
    aig._fanin1[var] = f1
    v0, v1 = f0 >> 1, f1 >> 1
    aig._nref[v0] += 1
    aig._nref[v1] += 1
    aig._fanouts[v0].append(var)
    aig._fanouts[v1].append(var)
    aig._level[var] = max(aig._level[v0], aig._level[v1]) + 1
    aig._strash[strash_key(f0, f1)] = var
    aig._num_ands += 1
    return make_lit(var)


def _compact_numbering(aig: Aig) -> Tuple[Dict[int, int], List[int]]:
    """Internal var ids to compact AIGER numbering (PIs first, then
    ANDs in topological order)."""
    var_map: Dict[int, int] = {0: 0}
    for i, pi in enumerate(aig.pis):
        var_map[pi] = i + 1
    ands = aig.topo_ands()
    for j, var in enumerate(ands):
        var_map[var] = aig.num_pis + 1 + j
    return var_map, ands


def _map_lit(lit: int, var_map: Dict[int, int]) -> int:
    return 2 * var_map[lit_var(lit)] + (lit & 1)


def _write_delta(fh: BinaryIO, delta: int) -> None:
    if delta <= 0:
        raise AigerFormatError(f"non-positive AIGER delta {delta}")
    while delta >= 0x80:
        fh.write(bytes((0x80 | (delta & 0x7F),)))
        delta >>= 7
    fh.write(bytes((delta,)))


def reference_write_aig(aig: Aig, path: Union[str, "os.PathLike[str]"]) -> None:
    """Binary AIGER, one literal mapped and one byte written at a time —
    the reference of ``io_aiger.write_aig``."""
    var_map, ands = _compact_numbering(aig)
    max_var = aig.num_pis + len(ands)
    with open(path, "wb") as fh:
        header = f"aig {max_var} {aig.num_pis} 0 {aig.num_pos} {len(ands)}\n"
        fh.write(header.encode("ascii"))
        for lit in aig.pos:
            fh.write(f"{_map_lit(lit, var_map)}\n".encode("ascii"))
        for var in ands:
            lhs = 2 * var_map[var]
            rhs0 = _map_lit(aig.fanin0(var), var_map)
            rhs1 = _map_lit(aig.fanin1(var), var_map)
            if rhs0 < rhs1:
                rhs0, rhs1 = rhs1, rhs0
            _write_delta(fh, lhs - rhs0)
            _write_delta(fh, rhs0 - rhs1)
        if aig.name:
            fh.write(b"c\n")
            fh.write(aig.name.encode("utf-8") + b"\n")


def _read_delta(data: bytes, pos: int) -> Tuple[int, int]:
    """The delta encoded at ``data[pos:]`` and the offset after it."""
    value = shift = 0
    for at in range(pos, len(data)):
        b = data[at]
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, at + 1
        shift += 7
    raise AigerFormatError(f"byte {pos}: truncated binary AIGER delta")


def _resolve(lit: int, lit_map: Dict[int, int], where: str) -> int:
    if lit <= 1:
        return lit
    base = lit & ~1
    if base not in lit_map:
        raise AigerFormatError(f"{where}: undefined literal {lit}")
    return lit_map[base] ^ (lit & 1)


def reference_read_aig(path: Union[str, "os.PathLike[str]"]) -> Aig:
    """Binary AIGER, one byte decoded and one literal resolved through a
    dict at a time, every AND built by :func:`reference_and` — the
    reference of ``io_aiger.read_aiger`` on ``.aig`` files."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n")
    end = len(data) if end < 0 else end
    header, pos = data[:end].split(), end + 1
    assert header and header[0] == b"aig", "binary AIGER only"
    m, i, _, o, a = _parse_header_counts(header, "byte 0")
    if 2 * (o + a) > len(data) - pos:
        raise AigerFormatError(
            f"byte {len(data)}: truncated, the header announces {o} outputs "
            f"and {a} ANDs")
    max_lit = 2 * m + 1
    aig = Aig()
    lit_map: Dict[int, int] = {0: 0}
    for k in range(i):
        lit_map[2 * (k + 1)] = aig.add_pi()
    po_lits = []
    for _ in range(o):
        end = data.find(b"\n", pos)
        if end < 0:
            raise AigerFormatError(f"byte {pos}: truncated binary AIGER outputs")
        field = data[pos:end].decode("ascii", errors="replace")
        po_lits.append((_literals(field, 1, max_lit, f"byte {pos}")[0], pos))
        pos = end + 1
    for k in range(a):
        lhs, at = 2 * (i + 1 + k), pos
        delta0, pos = _read_delta(data, pos)
        delta1, pos = _read_delta(data, pos)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs1 < 0:
            raise AigerFormatError(f"byte {at}: negative literal in AND {lhs}")
        where = f"byte {at}"
        lit_map[lhs] = reference_and(aig, _resolve(rhs0, lit_map, where),
                                     _resolve(rhs1, lit_map, where))
    for lit, at in po_lits:
        aig.add_po(_resolve(lit, lit_map, f"byte {at}"))
    return aig
