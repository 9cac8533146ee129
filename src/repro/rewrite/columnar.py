"""Columnar batch evaluation: the eval-stage hot path over flat arrays.

The per-cut loop the baseline engines run
(:func:`repro.rewrite.base.best_candidate_over_cuts`) dispatches
several Python method calls per graph access and recomputes the root
cone's local deref once per *structure*.  This module inverts the data
layout: the per-node arrays of an
:class:`~repro.aig.snapshot.AigSnapshot` (or the identical internal
columns of a live :class:`~repro.aig.graph.Aig`) become the primary
store, and a whole table of per-root cut rows
(:class:`~repro.cuts.manager.CutColumns`) is scored in three phases:

1. **Kernel phase** (numpy, once per batch): every cut function is
   lifted into the 4-variable space (:func:`~repro.npn.truth.
   batch_lift_tt4`), canonicalized through one gather of the 65 536-
   entry NPN LUT (:func:`~repro.npn.canon.npn_canon_batch_rows`), and
   class-filtered against a precomputed membership mask — replacing a
   per-cut ``expand``/``npn_canon``/``in allowed`` chain.  The same
   pass resolves each distinct class's structures once, charges every
   root's work units (a ``bincount``) and binds the leaf literal of
   every structure input (one gather through the 768 witness
   transforms), so phase 2 visits only eligible, class-allowed cuts.
2. **Scoring phase** (tight Python loop over plain lists): the
   strash/level bookkeeping of :func:`~repro.rewrite.base.
   evaluate_candidate`, with its shadow reference counts replaced by
   closure bitmasks (DESIGN §4f).  One unbounded deref walk per root
   finds the nodes that die with it — none when the root dies alone —
   and gives each a mask of the dead part of its fanin cone; a cut
   leaf or a strash hit inside the dead set keeps exactly its mask
   alive, so a row's gain is ``|root dead| - popcount(alive) -
   added``.  A row is dropped at the add or the revive that takes it
   below the gain it needs; structures are decoded into index tuples
   once per process.
3. **Replay**: callers feed the returned ``(root, candidate, units)``
   triples through the simulated scheduler, so results, meter charges
   and stage stats are those of one Section 4.3 operator per root on
   every executor.

``tests/reference.py`` keeps that per-root operator (and the per-pair
cut merge) as the reference; ``tests/test_differential_fuzz.py`` pins
every executor byte-identical to it.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..aig.graph import KIND_AND, KIND_DEAD, Aig
from ..cuts.manager import CutColumns
from ..npn.canon import _TRANSFORMS, npn_canon_batch_rows
from ..npn.truth import CUT_LEAF_SENTINEL, batch_lift_tt4
from .base import Candidate

# ---------------------------------------------------------------------------
# Columnar views
# ---------------------------------------------------------------------------


class ColumnarView:
    """Plain-list columns plus the strash dict of one graph generation.

    Scalar indexing into Python lists is several times faster than
    numpy scalar indexing (no per-access dtype boxing), which is what
    the scoring phase lives on; the numpy arrays are used only by the
    kernel phase.  Views are read-only by convention — the eval stage
    never mutates the graph.
    """

    __slots__ = ("kind", "fanin0", "fanin1", "nref", "level", "stamp",
                 "life", "strash", "size")

    def __init__(self, kind, fanin0, fanin1, nref, level, stamp, life,
                 strash):
        self.kind = kind
        self.fanin0 = fanin0
        self.fanin1 = fanin1
        self.nref = nref
        self.level = level
        self.stamp = stamp
        self.life = life
        self.strash = strash
        self.size = len(kind)


def columnar_view(aig_like) -> ColumnarView:
    """The columnar view of a live :class:`Aig` or an ``AigSnapshot``.

    A live graph already stores its columns as plain lists, so the view
    just references them (valid until the next mutation — fine for the
    read-only eval stage).  A snapshot converts its numpy arrays via
    :meth:`~repro.aig.snapshot.AigSnapshot.columns` (cached on the
    snapshot, one ``tolist`` per array per generation).
    """
    if isinstance(aig_like, Aig):
        return ColumnarView(
            aig_like._kind, aig_like._fanin0, aig_like._fanin1,
            aig_like._nref, aig_like._level, aig_like._stamp,
            aig_like._life, aig_like._strash,
        )
    kind, fanin0, fanin1, nref, level, stamp, life = aig_like.columns()
    return ColumnarView(kind, fanin0, fanin1, nref, level, stamp, life,
                        aig_like._ensure_strash())


# ---------------------------------------------------------------------------
# Per-process decode caches
# ---------------------------------------------------------------------------

#: canonical-class membership masks, one 65 536-entry bool array per
#: distinct allowed-class set (there are only a couple of presets).
_ALLOWED_MASKS: Dict[FrozenSet[int], np.ndarray] = {}

#: The 768 NpnTransform objects as gather tables, indexed by witness
#: row: structure input ``i`` reads leaf position ``_POS[row, i]``
#: complemented by ``_NEG[row, i]``; the output by ``_OUT_NEG[row]``.
_POS = np.array([t.perm for t in _TRANSFORMS], dtype=np.intp)
_NEG = np.array([[t.neg_mask >> i & 1 for i in range(4)]
                 for t in _TRANSFORMS], dtype=np.int64)
_OUT_NEG = np.array([t.out_neg for t in _TRANSFORMS], dtype=np.int64)

#: id(structure) -> (pin, decoded nodes, out index, out compl, charge).
#: Keyed by identity (structures are interned in the library); the pin
#: keeps the id from being recycled under us.
_DECODED_STRUCTS: Dict[int, tuple] = {}


def _allowed_mask(allowed: FrozenSet[int]) -> np.ndarray:
    mask = _ALLOWED_MASKS.get(allowed)
    if mask is None:
        mask = np.zeros(65536, dtype=bool)
        mask[list(allowed)] = True
        _ALLOWED_MASKS[allowed] = mask
    return mask


def _decode_structure(structure) -> tuple:
    key = id(structure)
    hit = _DECODED_STRUCTS.get(key)
    if hit is not None and hit[0] is structure:
        return hit
    nodes = tuple(
        (l0 >> 1, l0 & 1, l1 >> 1, l1 & 1) for l0, l1 in structure.nodes
    )
    entry = (structure, nodes, structure.out >> 1, structure.out & 1,
             len(structure.nodes) + 2)
    _DECODED_STRUCTS[key] = entry
    return entry


def _deref_cone(root, kind, fanin0, fanin1, nref):
    """Shadow-refcount deref of ``root``'s cone: the nodes that die with
    the root (its MFFC), in discovery order — the root first, every
    node after all of its dead fanouts."""
    ref: Dict[int, int] = {}
    ref_get = ref.get
    dead = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for fv in (fanin0[v] >> 1, fanin1[v] >> 1):
            r = ref_get(fv)
            if r is None:
                r = nref[fv]
            r -= 1
            ref[fv] = r
            if r == 0 and kind[fv] == KIND_AND:
                dead.append(fv)
                stack.append(fv)
    return dead


def _closures(dead, fanin0, fanin1):
    """``var -> bitmask`` over a :func:`_deref_cone` list (bit ``k`` is
    ``dead[k]``): the node plus the dead nodes of its fanin cone — what
    stays alive when the node does, as a cut leaf or a strash hit
    (DESIGN §4f).  Reverse discovery order is fanins-first; Python ints,
    so a cone wider than 64 nodes needs nothing special."""
    closure: Dict[int, int] = {}
    closure_get = closure.get
    bit = 1 << len(dead)
    for v in reversed(dead):
        bit >>= 1
        closure[v] = (bit | closure_get(fanin0[v] >> 1, 0)
                      | closure_get(fanin1[v] >> 1, 0))
    return closure


# ---------------------------------------------------------------------------
# The batch engine
# ---------------------------------------------------------------------------


def eval_tasks_columnar(
    aig_like,
    tasks: CutColumns,
    config,
    library,
    observer=None,
) -> List[Tuple[int, Optional[Candidate], int]]:
    """Score every root of the ``tasks`` table; the batch twin of a
    loop over :func:`~repro.rewrite.base.best_candidate_over_cuts`.

    The table is read column-wise — only a winning cut is ever
    materialized.  Returns ``(root, candidate-or-None, work-units)``
    triples with the ``-1`` dead-root sentinel, candidate-for-candidate
    and unit-for-unit identical to that loop — including every
    observer counter and histogram value (counter increments are batched,
    which the order-insensitive metric aggregation absorbs).
    """
    observing = observer is not None and observer.enabled
    view = columnar_view(aig_like)
    kind = view.kind
    fanin0 = view.fanin0
    fanin1 = view.fanin1
    nref = view.nref
    level = view.level
    strash_get = view.strash.get
    psize = view.size
    lit_cap = 2 * psize
    roots, counts = tasks.roots, tasks.counts
    live = [kind[root] != KIND_DEAD for root in roots]
    # Lazy levels (DESIGN §4d): settling the roots makes the raw column
    # exact for every node stored at or below ``bound`` — each root, its
    # TFI, every cut leaf.  Only a strash hit can be stored above it; its
    # level is derived, never read.  A snapshot is captured settled.
    bound = sys.maxsize
    if isinstance(aig_like, Aig):
        bound = max((aig_like.level(root) for root, alive in zip(roots, live)
                     if alive), default=0)

    max_structs = config.max_structs
    preserve_level = config.preserve_level
    min_gain = 0 if config.zero_gain else 1

    # ---- kernel phase: everything a cut needs before its structures
    # are walked, for the whole batch at once.  Lift + canonicalize +
    # class-filter; resolve each distinct class once; charge units per
    # root; bind the leaf literal of every structure input.
    t0 = time.perf_counter()
    n_roots = len(roots)
    live_root = np.array(live, dtype=bool)
    counts_col = np.array(counts, dtype=np.int64)
    root_of = np.repeat(np.arange(n_roots), counts_col)
    # Rows are ascending and sentinel-padded: column 1 is real from
    # two leaves up.
    eligible = np.flatnonzero(
        live_root[root_of] & (tasks.leaves[:, 1] < CUT_LEAF_SENTINEL))
    n_flat = len(eligible)
    leaves = tasks.leaves[eligible]
    real = leaves < CUT_LEAF_SENTINEL
    canon_col, row_col = npn_canon_batch_rows(
        batch_lift_tt4(tasks.tt[eligible], real.sum(axis=1)))
    allowed = np.flatnonzero(_allowed_mask(config.allowed_classes)[canon_col])
    npn_misses = n_flat - len(allowed)
    flat = eligible[allowed]  # row of ``tasks`` per scored cut
    row_col = row_col[allowed]
    classes, class_of, class_hits = np.unique(
        canon_col[allowed], return_inverse=True, return_counts=True)
    classes = classes.tolist()
    entries = []
    for canon in classes:
        structures = library.structures(canon)
        if max_structs is not None:
            structures = structures[:max_structs]
        entries.append(tuple(_decode_structure(s) for s in structures))
    root_of = root_of[flat]
    charges = np.array([sum(s[4] for s in entry) for entry in entries],
                       dtype=np.int64)
    units = np.bincount(root_of, weights=charges[class_of],
                        minlength=n_roots).astype(np.int64)
    units[~live_root] = -1
    units = units.tolist()
    class_hits = class_hits.tolist()
    vectorized = sum(n * len(entry) for n, entry in zip(class_hits, entries))
    # Per scored cut: [0, literal of structure input 1..4, leaves x4,
    # class index, output complement].  A padded position reads
    # constant false, complemented like any other.
    leaves = leaves[allowed]
    table = np.zeros((len(flat), 11), dtype=np.int64)
    table[:, 1:5] = np.take_along_axis(
        np.where(real[allowed], leaves, 0) << 1, _POS[row_col], axis=1
    ) | _NEG[row_col]
    table[:, 5:9] = leaves
    table[:, 9] = class_of
    table[:, 10] = _OUT_NEG[row_col]
    table = table.tolist()
    cuts_of = np.bincount(root_of, minlength=n_roots)
    scored_roots = np.flatnonzero(cuts_of)
    kernel_seconds = time.perf_counter() - t0

    # ---- scoring phase: exact evaluate_candidate semantics over the
    # dead set as closure bitmasks (DESIGN §4f).
    t0 = time.perf_counter()
    results: List[Tuple[int, Optional[Candidate], int]] = [
        (root, None, n) for root, n in zip(roots, units)]
    deref_walks = 0
    hi = 0  # cursor into ``table``

    for ri, num_cuts in zip(scored_roots.tolist(),
                            cuts_of[scored_roots].tolist()):
        lo, hi = hi, hi + num_cuts
        root = roots[ri]
        best_key = None
        best = None
        # Branch and bound: ``dead_n - added`` only falls during a
        # walk, so a structure is dropped at the add or the revive
        # that takes it below the gain a candidate needs, or the best
        # gain so far (ties walk on: they still compete on added nodes
        # and level).
        floor = min_gain
        root_level = level[root]
        # The root's MFFC, once: the root alone unless a fanin is an
        # AND it holds the last reference to.
        f0, f1 = fanin0[root] >> 1, fanin1[root] >> 1
        if ((nref[f0] == 1 and kind[f0] == KIND_AND)
                or (nref[f1] == 1 and kind[f1] == KIND_AND)):
            deref_walks += 1
            root_dead = _deref_cone(root, kind, fanin0, fanin1, nref)
            closure_get = _closures(root_dead, fanin0, fanin1).get
            root_dead_n = len(root_dead)
        else:
            closure_get = None
            root_dead_n = 1
        for j in range(lo, hi):
            cut = table[j]
            # A leaf keeps itself and the dead part of its cone alive.
            kept = 0
            if closure_get is not None:
                for leaf in cut[5:9]:
                    kept |= closure_get(leaf, 0)
            cut_dead_n = root_dead_n - kept.bit_count()
            if cut_dead_n < floor:
                continue

            for structure, snodes, out_idx, out_c, _ in entries[cut[9]]:
                values = cut[:5]
                vappend = values.append
                alive = kept
                dead_n = cut_dead_n
                levels = overlay = None
                added = 0
                for i0, c0, i1, c1 in snodes:
                    a = values[i0] ^ c0
                    b = values[i1] ^ c1
                    # Inline Aig._fold_trivial ((a ^ b) < 2 covers both
                    # a == b and a == not b).
                    if a < 2 or b < 2 or (a ^ b) < 2:
                        if a == 0 or b == 0 or a ^ 1 == b:
                            vappend(0)
                        elif a == 1:
                            vappend(b)
                        elif b == 1 or a == b:
                            vappend(a)
                        continue
                    if a > b:
                        a, b = b, a
                    if b < lit_cap:
                        hv = strash_get((a, b), -1)
                        if hv >= 0:
                            if hv == root:
                                # The structure rebuilds the root
                                # internally; using it would put the
                                # root in its own replacement cone.
                                break
                            if closure_get is not None:
                                # Revive: the hit and the dead part of
                                # its cone stay.
                                revived = closure_get(hv, 0) & ~alive
                                if revived:
                                    alive |= revived
                                    dead_n -= revived.bit_count()
                                    if dead_n - added < floor:
                                        break
                            if level[hv] > bound:
                                # Possibly stale, but hv = a & b and both
                                # operand levels are exact: patch the
                                # derived level into a private copy.
                                if level is view.level:
                                    level = list(level)
                                la = level[a >> 1]
                                lb = level[b >> 1]
                                level[hv] = (la if la >= lb else lb) + 1
                            vappend(hv << 1)
                            continue
                    if overlay is not None:
                        hit = overlay.get((a, b), -1)
                        if hit >= 0:
                            vappend(hit)
                            continue
                    new_var = psize + added
                    added += 1
                    if dead_n - added < floor:
                        break
                    if overlay is None:
                        overlay = {}
                        levels = {}
                    av = a >> 1
                    bv = b >> 1
                    la = levels[av] if av >= psize else level[av]
                    lb = levels[bv] if bv >= psize else level[bv]
                    levels[new_var] = (la if la >= lb else lb) + 1
                    new_lit = new_var << 1
                    overlay[(a, b)] = new_lit
                    vappend(new_lit)
                else:
                    out_lit = values[out_idx] ^ out_c ^ cut[10]
                    ov = out_lit >> 1
                    if ov == root:
                        continue  # identity replacement
                    new_level = levels[ov] if ov >= psize else level[ov]
                    if preserve_level and new_level > root_level:
                        continue
                    gain = dead_n - added
                    key = (gain, -added, -new_level)
                    if best_key is None or key > best_key:
                        best_key = key
                        floor = max(floor, gain)
                        best = (j, structure, gain, new_level)

        if best is not None and best[2] >= min_gain:
            j, structure, gain, new_level = best
            results[ri] = (root, Candidate(
                root=root,
                root_stamp=view.stamp[root],
                root_life=view.life[root],
                cut=tasks.cut(int(flat[j])),
                canon_tt=classes[table[j][9]],
                transform=_TRANSFORMS[row_col[j]],
                structure=structure,
                gain=gain,
                new_root_level=new_level,
            ), units[ri])

    if observing:
        score_seconds = time.perf_counter() - t0
        for (_, candidate, n), num_cuts in zip(results, counts):
            if n >= 0:
                observer.observe("cuts_per_node", num_cuts)
                if candidate is not None:
                    observer.observe("gain", candidate.gain)
        for canon, n in zip(classes, class_hits):
            observer.count("npn_class_hits_total", n, cls=f"{canon:04x}")
        if npn_misses:
            observer.count("npn_class_misses_total", npn_misses)
        if vectorized:
            observer.count("eval_vectorized_candidates_total", vectorized)
        if deref_walks:
            observer.count("eval_deref_walks_total", deref_walks)
        observer.observe("eval_batch_size", float(n_flat))
        observer.observe("eval_kernel_seconds", kernel_seconds, phase="canon")
        observer.observe("eval_kernel_seconds", score_seconds, phase="score")
    return results


# ---------------------------------------------------------------------------
# Executor replay glue
# ---------------------------------------------------------------------------


def run_eval_batched(executor, name: str, items: Sequence[int], ctx):
    """Native eval stage: batch-precompute with the columnar kernels,
    then replay through ``executor.run``.

    The replay operator charges the meter units and phase costs of a
    per-root Section 4.3 operator, so the stage stats, spans and
    timeline are byte-identical to one.
    """
    from ..galois.activity import Phase

    merged = eval_tasks_columnar(
        ctx.aig, ctx.cutman.eval_harvest(items), ctx.config, ctx.library,
        observer=executor.obs,
    )
    results = {root: (candidate, units) for root, candidate, units in merged}
    prep_info = ctx.prep_info
    meter = ctx.meter

    def replay_operator(root: int):
        candidate, units = results[root]
        if units < 0:  # dead root: the eval operator does nothing
            return
        meter.add(units)
        yield Phase(locks=(), cost=units + 1)
        prep_info.store(root, candidate)

    return executor.run(name, items, replay_operator)


def run_enum_batched(executor, name: str, items: Sequence[int], ctx):
    """Native enum stage: plan every merge the worklist needs
    (:meth:`~repro.cuts.CutManager.plan_closures`), run each dependency
    wave as one columnar kernel invocation
    (:meth:`~repro.cuts.CutManager.merge_tasks_columnar`), then replay
    through ``executor.run`` (DESIGN §4c "Closure waves", §4g).

    The replay charges each root what the per-root enum operator would:
    its ``last_computed`` region as locks, its ``work`` delta as cost, so
    stats, spans and :attr:`~repro.cuts.CutManager.work` are
    byte-identical to running it per root.  A simple root's first
    attempt yields its one-lock phase and leaves its install pending;
    pending installs are written in one vector pass
    (:meth:`~repro.cuts.CutManager.install_cuts`) before any root takes
    the per-root path — the only one that reads another var's entry —
    and when the stage ends.  A closure root walks its cold closure as
    ``_resolve`` would and installs *before yielding*, so an aborted
    activity retries as a one-unit cache answer; cache answers,
    order-dependent closures and retries run the operator's own step
    (:func:`~repro.core.operators.enum_phase`).
    """
    from ..core.operators import enum_phase
    from ..galois.activity import Phase

    aig, cutman = ctx.aig, ctx.cutman
    plan = cutman.plan_closures(items)
    for wave in plan.waves:
        cutman.merge_tasks_columnar(plan, wave, observer=executor.obs)
    var, pairs, simple = plan.var.tolist(), plan.pairs.tolist(), plan.simple
    deps = list(zip(plan.src0[simple:].tolist(), plan.src1[simple:].tolist()))
    # Simple roots whose first attempt is still ahead and whose entry no
    # per-root path has written: root -> task.
    first = dict(zip(var[:simple], range(simple)))
    pending: List[int] = []  # tasks whose install is deferred

    def flush():
        cutman.install_cuts(plan, pending)
        pending.clear()

    def replay_operator(root: int):
        t = first.pop(root, None)
        if t is not None:
            pending.append(t)
            yield Phase(locks=(root,), cost=pairs[t] + 1)
            return
        if aig.is_dead(root):
            return
        t = plan.index.get(root)
        if t is None or t in pending or cutman.has_fresh_live_cuts(root):
            if pending:
                flush()
            phase = enum_phase(cutman, root)
            for v in cutman.last_computed:
                first.pop(v, None)
            yield phase
            return
        # A closure walk reads its vars' entries, pending ones installed.
        tasks, done, cost, stack = [], set(pending), 1, [t]
        while stack:
            t = stack.pop()
            if tasks and (t in done or cutman.has_fresh_entry(var[t])):
                continue  # a fanin this walk or another activity installed
            tasks.append(t)
            done.add(t)
            cost += pairs[t]
            if t >= simple:
                stack += [s for s in deps[t - simple] if s >= 0]
        cutman.install_cuts(plan, pending + tasks)
        pending.clear()
        region = [var[t] for t in tasks]
        for v in region:
            first.pop(v, None)
        yield Phase(locks=region, cost=cost)

    stage = executor.run(name, items, replay_operator)
    if pending:
        flush()
    if plan.per_root and executor.obs.enabled:
        executor.obs.count("enum_per_root_resolves_total", plan.per_root)
    return stage
