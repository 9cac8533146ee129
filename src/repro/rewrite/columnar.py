"""Columnar batch evaluation: the one candidate selector of every engine.

A per-cut loop over :func:`~repro.rewrite.base.evaluate_candidate`
dispatches several Python method calls per graph access and recomputes
the root cone's local deref once per *structure*.  This module inverts
the data layout: the internal per-node columns of the live
:class:`~repro.aig.graph.Aig` become the primary store, and a whole
table of per-root cut rows (:class:`~repro.cuts.manager.CutColumns`) is
scored in three phases:

1. **Kernel phase** (numpy, once per batch): every cut function is
   lifted into the 4-variable space (:func:`~repro.npn.truth.
   batch_lift_tt4`); one gather of the per-process class table
   (:func:`class_table`, keyed by library identity, allowed classes
   and ``max_structs``) gives its class slot — -1 for a class not
   allowed — and one of the witness LUT its NPN transform, replacing a
   per-cut ``expand``/``npn_canon``/``in allowed`` chain.  The table
   already holds each allowed class's decoded structures and charge,
   so no batch runs a per-class ``np.unique`` or structure loop: the
   same pass charges every root's work units (a ``bincount``) and
   binds the leaf literal of every structure input (one gather through
   the 768 witness transforms), so phase 2 visits only eligible,
   class-allowed cuts.
2. **Scoring phase** (tight Python loop over plain lists): the
   strash/level bookkeeping of :func:`~repro.rewrite.base.
   evaluate_candidate`, with its shadow reference counts replaced by
   closure bitmasks (DESIGN §4f).  One unbounded deref walk per root
   finds the nodes that die with it — none when the root dies alone —
   and gives each a mask of the dead part of its fanin cone; a cut
   leaf or a strash hit inside the dead set keeps exactly its mask
   alive, so a row's gain is ``|root dead| - popcount(alive) -
   added``.  A row is dropped at the add or the revive that takes it
   below the gain it needs; structures come decoded into index tuples
   from the class table.
3. **Replay**: callers feed the returned ``(root, candidate, units)``
   triples through the simulated scheduler, so results, meter charges
   and stage stats are those of one Section 4.3 operator per root on
   every executor.

DACPara's eval stage scores a whole worklist per call
(:func:`run_eval_batched`); the baseline engines (ABC, ICCAD'18, the
GPU models) score one root per call through :func:`find_best_candidate`,
the same kernel on a one-root table.

``tests/reference.py`` keeps the per-cut loop, that per-root operator
and the per-pair cut merge as the reference;
``tests/test_differential_fuzz.py`` pins every executor and every
baseline engine byte-identical to it.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..aig.graph import KIND_AND, KIND_DEAD, Aig
from ..cuts.manager import CutColumns, CutManager
from ..npn.canon import _TRANSFORMS, ensure_canon_lut
from ..npn.truth import batch_lift_tt4
from .base import Candidate, WorkMeter

# ---------------------------------------------------------------------------
# Per-process decode caches
# ---------------------------------------------------------------------------

#: The 768 NpnTransform objects as gather tables, indexed by witness
#: row: structure input ``i`` reads leaf position ``_POS[row, i]``
#: complemented by ``_NEG[row, i]``; the output by ``_OUT_NEG[row]``.
_POS = np.array([t.perm for t in _TRANSFORMS], dtype=np.intp)
_NEG = np.array([[t.neg_mask >> i & 1 for i in range(4)]
                 for t in _TRANSFORMS], dtype=np.int64)
_OUT_NEG = np.array([t.out_neg for t in _TRANSFORMS], dtype=np.int64)


class ClassTable(NamedTuple):
    """What the eval stage needs of one (library, allowed classes,
    ``max_structs``) triple, resolved once per process: ``slot[tt]`` is
    the slot of the NPN class of 4-input table ``tt``, -1 when the
    class is not allowed; per slot (allowed classes in ascending
    order), the canonical table, the decoded structures ``(structure,
    nodes, out index, out compl, charge)``, their charge sum and count,
    and the ``npn_class_hits_total`` label."""

    library: object  # pins the identity the table is keyed by
    slot: np.ndarray  # int16, 65 536 entries
    canon: List[int]
    entries: List[tuple]
    charge: np.ndarray
    n_structs: np.ndarray
    labels: List[str]


_CLASS_TABLES: Dict[tuple, ClassTable] = {}


def class_table(library, allowed: FrozenSet[int],
                max_structs: Optional[int]) -> ClassTable:
    """The cached :class:`ClassTable` of ``library`` (by identity),
    ``allowed`` and ``max_structs``."""
    key = (id(library), allowed, max_structs)
    hit = _CLASS_TABLES.get(key)
    if hit is not None and hit.library is library:
        return hit
    canon = sorted(allowed)
    entries = []
    shared: Dict[tuple, tuple] = {}  # one decoded node tuple per value
    for c in canon:
        structures = library.structures(c)[:max_structs]
        entries.append(tuple(
            (s, tuple(shared.setdefault(node, node) for node in (
                (l0 >> 1, l0 & 1, l1 >> 1, l1 & 1) for l0, l1 in s.nodes)),
             s.out >> 1, s.out & 1, len(s.nodes) + 2) for s in structures))
    of_canon = np.full(65536, -1, dtype=np.int16)
    of_canon[canon] = np.arange(len(canon))
    table = ClassTable(
        library, of_canon.take(ensure_canon_lut()[0]), canon, entries,
        np.array([sum(s[4] for s in e) for e in entries], dtype=np.int64),
        np.array([len(e) for e in entries], dtype=np.int64),
        [f"{c:04x}" for c in canon])
    _CLASS_TABLES[key] = table
    return table


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
    aig: Aig,
    tasks: CutColumns,
    config,
    library,
    observer=None,
) -> List[Tuple[int, Optional[Candidate], int]]:
    """Score every root of the ``tasks`` table: for each, the best-gain
    (cut, structure) pair by :func:`~repro.rewrite.base.
    evaluate_candidate` semantics.

    The table is read column-wise — only a winning cut is ever
    materialized.  Returns ``(root, candidate-or-None, work-units)``
    triples with the ``-1`` dead-root sentinel, candidate-for-candidate
    and unit-for-unit identical to the per-cut loop in
    ``tests/reference.py`` — including every observer counter and
    histogram value that loop emits (counter increments are batched,
    which the order-insensitive metric aggregation absorbs).
    """
    observing = observer is not None and observer.enabled
    # The graph stores its columns as plain lists: scalar indexing into
    # them is several times faster than into numpy (no per-access dtype
    # boxing), which is what the scoring phase lives on.  Read only —
    # the eval stage never mutates the graph.
    kind = aig._kind
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    nref = aig._nref
    level = raw_level = aig._level
    strash_get = aig._strash.get
    psize = len(kind)
    lit_cap = 2 * psize
    roots, counts = tasks.roots, tasks.counts
    live = [kind[root] != KIND_DEAD for root in roots]
    # Lazy levels (DESIGN §4d): settling the roots makes the raw column
    # exact for every node stored at or below ``bound`` — each root, its
    # TFI, every cut leaf.  Only a strash hit can be stored above it; its
    # level is derived, never read.
    bound = max((aig.level(root) for root, alive in zip(roots, live)
                 if alive), default=0)

    max_structs = config.max_structs
    preserve_level = config.preserve_level
    min_gain = 0 if config.zero_gain else 1

    # ---- kernel phase: everything a cut needs before its structures
    # are walked, for the whole batch at once.  Lift, then one gather of
    # the class table gives each cut's class slot (-1: not allowed) and
    # one of the witness LUT its transform; charge units per root; bind
    # the leaf literal of every structure input.
    t0 = time.perf_counter()
    classes = class_table(library, config.allowed_classes, max_structs)
    n_roots = len(roots)
    root_of = np.arange(n_roots).repeat(counts)
    # Rows are ascending and padded with var 0 (never a leaf): column
    # 1 is real from two leaves up.
    eligible = tasks.leaves[:, 1] != 0
    all_live = all(live)
    if not all_live:
        eligible &= np.array(live).take(root_of)
    eligible = eligible.nonzero()[0]
    n_flat = len(eligible)
    leaves = tasks.leaves.take(eligible, axis=0)
    # A row's four "real leaf" flags, one byte each, as one word.
    sizes = np.bitwise_count((leaves != 0).view(np.uint32))
    tt4 = batch_lift_tt4(tasks.tt.take(eligible), sizes.reshape(-1))
    slot = classes.slot.take(tt4)
    allowed = (slot >= 0).nonzero()[0]
    npn_misses = n_flat - len(allowed)
    flat = eligible.take(allowed)  # row of ``tasks`` per scored cut
    slot = slot.take(allowed)
    row_col = ensure_canon_lut()[1].take(tt4.take(allowed))
    root_of = root_of.take(flat)
    units = np.bincount(root_of, weights=classes.charge.take(slot),
                        minlength=n_roots).astype(np.int64)
    if not all_live:
        units[~np.array(live)] = -1
    units = units.tolist()
    # Per scored cut: [0, literal of structure input 1..4, leaves x4,
    # class slot, output complement].  A padded position is var 0, so it
    # reads constant false, complemented like any other; the literals
    # widen the int32 leaves inside the shift.
    leaves = leaves.take(allowed, axis=0)
    n_cuts = len(allowed)
    perm = _POS.take(row_col, axis=0) + np.arange(0, 4 * n_cuts, 4)[:, None]
    inputs = (np.left_shift(leaves, 1, dtype=np.int64).take(perm)
              | _NEG.take(row_col, axis=0))
    table = np.concatenate(
        [np.zeros((n_cuts, 1), dtype=np.int64), inputs, leaves,
         slot[:, None], _OUT_NEG.take(row_col)[:, None]], axis=1).tolist()
    entries = classes.entries
    cuts_of = np.bincount(root_of, minlength=n_roots).tolist()
    kernel_seconds = time.perf_counter() - t0

    # ---- scoring phase: exact evaluate_candidate semantics over the
    # dead set as closure bitmasks (DESIGN §4f).
    t0 = time.perf_counter()
    results: List[Tuple[int, Optional[Candidate], int]] = [
        (root, None, n) for root, n in zip(roots, units)]
    deref_walks = 0
    hi = 0  # cursor into ``table``

    # The roots with an eligible, class-allowed cut, in order.
    for ri in [ri for ri, n in enumerate(cuts_of) if n]:
        lo, hi = hi, hi + cuts_of[ri]
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
                        hv = strash_get(a << 32 | b, -1)  # strash_key(a, b)
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
                                if level is raw_level:
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
                root_stamp=int(aig._stamp[root]),
                root_life=int(aig._life[root]),
                cut=tasks.cut(int(flat[j])),
                canon_tt=classes.canon[table[j][9]],
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
        hits = np.bincount(slot, minlength=len(classes.canon))
        for s in hits.nonzero()[0].tolist():
            observer.count("npn_class_hits_total", int(hits[s]),
                           cls=classes.labels[s])
        if npn_misses:
            observer.count("npn_class_misses_total", npn_misses)
        vectorized = int(hits @ classes.n_structs)
        if vectorized:
            observer.count("eval_vectorized_candidates_total", vectorized)
        if deref_walks:
            observer.count("eval_deref_walks_total", deref_walks)
        observer.observe("eval_batch_size", float(n_flat))
        observer.observe("eval_kernel_seconds", kernel_seconds, phase="canon")
        observer.observe("eval_kernel_seconds", score_seconds, phase="score")
    return results


def find_best_candidate(
    aig: Aig,
    root: int,
    cutman: CutManager,
    library,
    config,
    meter: Optional[WorkMeter] = None,
    observer=None,
) -> Optional[Candidate]:
    """The DAG-aware rewriting inner loop for one node: the kernel on
    ``root``'s (stamp-validated) cut set; charges its units to ``meter``."""
    ((_, candidate, units),) = eval_tasks_columnar(
        aig, cutman.eval_harvest([root]), config, library, observer)
    if meter is not None and units >= 0:
        meter.add(units)
    return candidate


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
    cutman.merge_tasks_columnar(plan, observer=executor.obs)
    var, pairs, simple = plan.var.tolist(), plan.pairs.tolist(), plan.simple
    deps = list(zip(*plan.src[:, simple:].tolist()))
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
