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

1. **Kernel phase** (numpy, one call per batch): every cut function is
   lifted into the 4-variable space (:func:`~repro.npn.truth.
   batch_lift_tt4`), canonicalized through one gather of the 65 536-
   entry NPN LUT (:func:`~repro.npn.canon.npn_canon_batch_rows`), and
   class-filtered against a precomputed membership mask — replacing a
   per-cut ``expand``/``npn_canon``/``in allowed`` chain.
2. **Scoring phase** (tight Python loop over plain lists): the exact
   deref/strash/revive/level bookkeeping of
   :func:`~repro.rewrite.base.evaluate_candidate`, with the per-cut
   invariants hoisted out of the per-structure loop — the local deref
   walk is computed once per (root, cut) and shared copy-on-write
   across structures (a revive is the only mutation, and revives are
   rare), leaf literals are bound once per cut, and structures are
   decoded into index tuples once per process.
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
from ..aig.literals import lit_var
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

#: witness-row -> ((pos, neg-bit) x4, out-neg bit), decoded once from
#: the 768 NpnTransform objects.
_ROW_LEAVES: List[Optional[tuple]] = [None] * 768

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


def _row_leaves(row: int) -> tuple:
    entry = _ROW_LEAVES[row]
    if entry is None:
        transform = _TRANSFORMS[row]
        asg = tuple((pos, int(neg)) for pos, neg in transform.leaf_assignment())
        entry = (asg, int(transform.out_neg))
        _ROW_LEAVES[row] = entry
    return entry


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


def _deref_cone(root, blocked, kind, fanin0, fanin1, nref):
    """Shadow-refcount deref of ``root``'s cone: ``(local refs, dead
    set)`` — the nodes that die with the root, never through a
    ``blocked`` var (the cut leaves)."""
    ref: Dict[int, int] = {}
    ref_get = ref.get
    dead = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        fv = fanin0[v] >> 1
        r = ref_get(fv)
        if r is None:
            r = nref[fv]
        r -= 1
        ref[fv] = r
        if r == 0 and fv not in blocked and kind[fv] == KIND_AND:
            dead.add(fv)
            stack.append(fv)
        fv = fanin1[v] >> 1
        r = ref_get(fv)
        if r is None:
            r = nref[fv]
        r -= 1
        ref[fv] = r
        if r == 0 and fv not in blocked and kind[fv] == KIND_AND:
            dead.add(fv)
            stack.append(fv)
    return ref, dead


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
    which the order-insensitive metric aggregation absorbs).  A pool
    worker's slice carries no stamps (``tasks.stamps is None``): its
    candidates name the winning cut by its index within the root's set,
    and the parent materializes it from its own columns.
    """
    observing = observer is not None and observer.enabled
    view = columnar_view(aig_like)
    kind = view.kind
    fanin0 = view.fanin0
    fanin1 = view.fanin1
    nref = view.nref
    level = view.level
    stamp_col = view.stamp
    life_col = view.life
    strash_get = view.strash.get
    psize = view.size
    lit_cap = 2 * psize
    roots, counts = tasks.roots, tasks.counts
    # Lazy levels (DESIGN §4d): settling the roots makes the raw column
    # exact for every node stored at or below ``bound`` — each root, its
    # TFI, every cut leaf.  Only a strash hit can be stored above it; its
    # level is derived, never read.  A snapshot is captured settled.
    bound = sys.maxsize
    if isinstance(aig_like, Aig):
        bound = max((aig_like.level(root) for root in roots
                     if kind[root] != KIND_DEAD), default=0)

    allowed = config.allowed_classes
    max_structs = config.max_structs
    preserve_level = config.preserve_level
    zero_gain = config.zero_gain
    min_gain = 0 if zero_gain else 1

    # ---- kernel phase: lift + canonicalize + class-filter every
    # vector-eligible cut across the whole batch in three numpy calls.
    t0 = time.perf_counter()
    leaf_rows = tasks.leaves.tolist()
    sizes_arr = (tasks.leaves < CUT_LEAF_SENTINEL).sum(axis=1)
    tts_arr = tasks.tt
    live_root = np.array([kind[root] != KIND_DEAD for root in roots],
                         dtype=bool)
    eligible = np.flatnonzero(np.repeat(live_root, counts) & (sizes_arr >= 2))
    n_flat = len(eligible)
    canon_col = np.zeros(len(sizes_arr), dtype=np.int64)
    row_col = np.full(len(sizes_arr), -1, dtype=np.int64)
    if n_flat:
        canon_col[eligible], row_col[eligible] = npn_canon_batch_rows(
            batch_lift_tt4(tts_arr[eligible], sizes_arr[eligible])
        )
    sizes = sizes_arr.tolist()
    canons = canon_col.tolist()
    rows = row_col.tolist()
    oks = _allowed_mask(allowed)[canon_col].tolist()
    kernel_seconds = time.perf_counter() - t0

    # ---- scoring phase: exact evaluate_candidate semantics, per-cut
    # invariants hoisted out of the per-structure loop.
    t0 = time.perf_counter()
    results: List[Tuple[int, Optional[Candidate], int]] = []
    per_canon: Dict[int, tuple] = {}
    npn_hits: Dict[int, int] = {}
    npn_misses = 0
    vectorized = 0
    ci = 0  # cursor into the flat per-cut columns

    for root, num_cuts in zip(roots, counts):
        first, ci = ci, ci + num_cuts
        if kind[root] == KIND_DEAD:
            results.append((root, None, -1))
            continue
        units = 0
        best_key = None
        best = None
        # Branch and bound: ``len(dead) - added`` only falls during a
        # walk, so a structure is dropped once it cannot reach the gain
        # a candidate needs, nor the best gain so far (ties walk on:
        # they still compete on added nodes and level).
        floor = min_gain
        root_level = level[root]
        root_ref = None  # unbounded deref of the root cone, lazily
        root_dead = None
        for i in range(first, ci):
            csize = sizes[i]
            if csize < 2:
                continue
            if not oks[i]:
                npn_misses += 1
                continue
            cleaves = leaf_rows[i][:csize]
            canon = canons[i]
            row = rows[i]
            if observing:
                npn_hits[canon] = npn_hits.get(canon, 0) + 1
            entry = per_canon.get(canon)
            if entry is None:
                structures = library.structures(canon)
                if max_structs is not None:
                    structures = structures[:max_structs]
                entry = tuple(_decode_structure(s) for s in structures)
                per_canon[canon] = entry
            if not entry:
                continue

            # Local deref of the root cone: the nodes that die when the
            # cut cone goes, against shadow reference counts (never the
            # shared ones).  The cut leaves only *block* dead-marking,
            # so the walk is cut-independent unless a leaf would have
            # died — compute the unbounded walk once per root and fall
            # back to a per-cut bounded walk in that (rare) case.
            if root_dead is None:
                root_ref, root_dead = _deref_cone(
                    root, (), kind, fanin0, fanin1, nref)
            if root_dead.isdisjoint(cleaves):
                base_ref = root_ref
                base_dead = root_dead
            else:
                base_ref, base_dead = _deref_cone(
                    root, cleaves, kind, fanin0, fanin1, nref)

            # Leaf literal per canonical structure input, once per cut.
            asg, out_neg = _row_leaves(row)
            base_vals = [0]
            for pos, neg in asg:
                base_vals.append(
                    ((cleaves[pos] << 1) | neg) if pos < csize else neg
                )

            for structure, snodes, out_idx, out_c, charge in entry:
                units += charge
                vectorized += 1
                values = base_vals.copy()
                vappend = values.append
                local_ref = base_ref
                dead = base_dead
                owned = False  # copy-on-write: only a revive mutates
                levels = None
                overlay = None
                added = 0
                abort = False
                for i0, c0, i1, c1 in snodes:
                    if len(dead) - added < floor:
                        abort = True
                        break
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
                                abort = True
                                break
                            if hv in dead:
                                if not owned:
                                    local_ref = dict(local_ref)
                                    dead = set(dead)
                                    owned = True
                                # Revive the resurrected node's cone.
                                rstack = [hv]
                                while rstack:
                                    u = rstack.pop()
                                    if u not in dead:
                                        continue
                                    dead.discard(u)
                                    for fl in (fanin0[u], fanin1[u]):
                                        fv = fl >> 1
                                        r = local_ref.get(fv)
                                        if r is None:
                                            r = nref[fv]
                                        r += 1
                                        local_ref[fv] = r
                                        if r > 0 and fv in dead:
                                            rstack.append(fv)
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
                    else:
                        overlay = {}
                        levels = {}
                    new_var = psize + added
                    added += 1
                    av = a >> 1
                    bv = b >> 1
                    la = levels[av] if av >= psize else level[av]
                    lb = levels[bv] if bv >= psize else level[bv]
                    levels[new_var] = (la if la >= lb else lb) + 1
                    new_lit = new_var << 1
                    overlay[(a, b)] = new_lit
                    vappend(new_lit)
                if abort:
                    continue
                out_lit = values[out_idx] ^ out_c ^ out_neg
                ov = out_lit >> 1
                if ov == root:
                    continue  # identity replacement
                new_level = levels[ov] if ov >= psize else level[ov]
                if preserve_level and new_level > root_level:
                    continue
                gain = len(dead) - added
                key = (gain, -added, -new_level)
                if best_key is None or key > best_key:
                    best_key = key
                    floor = max(floor, gain)
                    best = (i, canon, _TRANSFORMS[row], structure, gain,
                            new_level)

        if observing:
            observer.observe("cuts_per_node", num_cuts)
        candidate = None
        if best is not None:
            gain = best[4]
            if gain > 0 or (zero_gain and gain == 0):
                if observing:
                    observer.observe("gain", gain)
                candidate = Candidate(
                    root=root,
                    root_stamp=stamp_col[root],
                    root_life=life_col[root],
                    cut=(tasks.cut(best[0]) if tasks.stamps is not None
                         else best[0] - first),
                    canon_tt=best[1],
                    transform=best[2],
                    structure=best[3],
                    gain=gain,
                    new_root_level=best[5],
                )
        results.append((root, candidate, units))

    if observing:
        score_seconds = time.perf_counter() - t0
        for canon, n in sorted(npn_hits.items()):
            observer.count("npn_class_hits_total", n, cls=f"{canon:04x}")
        if npn_misses:
            observer.count("npn_class_misses_total", npn_misses)
        if vectorized:
            observer.count("eval_vectorized_candidates_total", vectorized)
        observer.observe("eval_batch_size", float(n_flat))
        observer.observe("eval_kernel_seconds", kernel_seconds, phase="canon")
        observer.observe("eval_kernel_seconds", score_seconds, phase="score")
    return results


# ---------------------------------------------------------------------------
# Executor replay glue
# ---------------------------------------------------------------------------


def run_eval_batched(executor, name: str, items: Sequence[int], ctx,
                     score=None):
    """Native eval stage: batch-precompute with the columnar kernels,
    then replay through ``executor.run``.

    The replay operator charges the meter units and phase costs of a
    per-root Section 4.3 operator, so the stage stats, spans and
    timeline are byte-identical to one.  ``score(table)`` lets the
    process executor compute the triples on its pool instead (None
    back: score here after all).
    """
    from ..galois.activity import Phase

    tasks = ctx.cutman.eval_harvest(items)
    merged = score(tasks) if score is not None else None
    if merged is None:
        merged = eval_tasks_columnar(
            ctx.aig, tasks, ctx.config, ctx.library, observer=executor.obs
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


def run_enum_batched(executor, name: str, items: Sequence[int], ctx,
                     merge=None):
    """Native enum stage: plan every merge the worklist needs
    (:meth:`~repro.cuts.CutManager.plan_closures`), run each dependency
    wave as one columnar kernel invocation
    (:meth:`~repro.cuts.CutManager.merge_tasks_columnar`), then replay
    through ``executor.run`` (DESIGN §4c "Closure waves").

    The stage only reads the graph, so a planned node has one block,
    whoever reaches it first.  The replay operator of a root walks its
    cold closure as ``_resolve`` would, pruned where an entry is already
    stamp-fresh, and installs *before yielding* — ``fresh_cuts``'s
    cache-then-lock shape, so an aborted activity retries as a one-unit
    cache hit.  Its lock region and cost are the enum operator's
    ``last_computed`` region and ``work`` delta, which keeps stats,
    spans and :attr:`~repro.cuts.CutManager.work` byte-identical to
    running that operator per root; it remains for cache answers and
    order-dependent closures.  ``merge(tasks)`` lets the process
    executor run wave 0 on its pool, returning the same ``(root, block,
    pairs)`` rows (None back: merge here after all).
    """
    from ..core.operators import make_enum_operator
    from ..galois.activity import Phase

    enum_op = make_enum_operator(ctx)
    aig = ctx.aig
    cutman = ctx.cutman
    live = [root for root in items if not aig.is_dead(root)]
    cutman.prime_liveness(live, fanins=True)
    plan, waves = cutman.plan_closures(live)
    blocks, pairs = {}, {}  # per planned var; a block pending until installed
    for wave in waves:  # a None input: the result of an earlier wave
        tasks = [(v, f0, f1, b0 or blocks[lit_var(f0)], b1 or blocks[lit_var(f1)])
                 for v, (_, f0, f1, b0, b1) in zip(wave, map(plan.get, wave))]
        merged = merge(tasks) if merge is not None and not blocks else None
        if merged is None:
            merged = cutman.merge_tasks_columnar(
                tasks, observer=executor.obs, pending=blocks.values())
        for v, block, n_pairs in merged:
            blocks[v], pairs[v] = block, n_pairs

    def replay_operator(root: int):
        if aig.is_dead(root):
            return
        if plan.get(root) is None or cutman.has_fresh_live_cuts(root):
            yield from enum_op(root)
            return
        region, cost, stack = [], 1, [root]
        while stack:
            v = stack.pop()
            if region and cutman.has_fresh_entry(v):
                continue  # a fanin some other activity installed
            cutman.install_cuts(v, blocks[v], work=pairs[v])
            region.append(v)
            cost += pairs[v]
            _, f0, f1, b0, b1 = plan[v]
            stack += [lit_var(f) for f, b in ((f0, b0), (f1, b1)) if b is None]
        yield Phase(locks=region, cost=cost)

    return executor.run(name, items, replay_operator)
