"""K-feasible cut enumeration with a stamp-validated, column-resident cache.

This is the paper's *Cut Manager*.  Cut sets are computed bottom-up by
merging fanin cut sets (the classic cut enumeration of Mishchenko et
al.) and cached per node.  A cache entry is keyed to the node's stamp,
so restructured or reused nodes are transparently recomputed; stale
fanin *cuts* (cuts whose own leaves have died) are filtered out at
merge time, which keeps the inductive validity invariant of
:mod:`repro.cuts.cut` intact.

Cut sets live as rows of one growable **arena** per manager
(sentinel-padded leaf rows, truth tables, leaf stamps, 64-bit signs),
and the cache is an **index table** over it: per var ``(entry stamp,
arena offset, row count, alive epoch)``, -1 for no entry.  Every entry
is rows — the trivial cut of a non-AND node included — so an enum stage
plans, hands off and installs a whole worklist in vector passes
(:meth:`CutManager.plan_closures`, :meth:`CutManager.
merge_tasks_columnar`, :meth:`CutManager.install_cuts`), liveness is a
vector compare against a mirror of the graph, and the evaluation engine
reads the columns directly.  :class:`~repro.cuts.cut.Cut` lists are
built only at API edges (:meth:`CutManager.cuts` /
:meth:`CutManager.fresh_cuts`, memoized per entry, and the winning
``Candidate.cut``); the per-pair merge that builds every ``Cut`` is the
reference in ``tests/reference.py``.  DESIGN.md §4c and §4g have the
soundness arguments and the ownership rules.

The manager also counts merge work (``work`` attribute): the simulated
parallel executor charges activities by this measure, which is what
makes the reproduced speedups data-driven rather than hand-tuned.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..aig import Aig
from ..aig.graph import KIND_DEAD
from ..aig.literals import lit_compl, lit_var
from ..errors import CutError
from ..npn.truth import (
    CUT_LEAF_SENTINEL,
    batch_cut_signs,
    batch_union_leaves,
    full_mask,
    lift_lut,
    tag_leaves,
)
from .cut import Cut

DEFAULT_MAX_CUTS = 12

# Masks indexed by cut width; merge never recomputes full_mask().
_FULL_MASKS_ARR = np.array([full_mask(n) for n in range(5)], dtype=np.int64)

# ``leaf & _ID_MASK`` maps the sentinel pad to var 0 (the constant node,
# which never dies), so padded rows index the life mirror safely; pad
# stamp lanes hold the constant's life stamp and always compare equal.
_ID_MASK = CUT_LEAF_SENTINEL - 1
_SIDE_BITS = np.array([[0], [1]], dtype=np.int64)  # a union tag's side bits
# Multiplier moving bit 0 of bytes 0..3 of a 32-bit word to bits 24..27
# (no partial product lands there or carries into it).
_LANE_PACK = (1 << 24) | (1 << 17) | (1 << 10) | (1 << 3)
_MIN_ARENA_ROWS = 1024

# The index table's rows; -1 throughout a var's column: no entry.
_STAMP, _OFF, _CNT, _ALIVE = range(4)
_NO_ENTRY = -1
# The kernel's packed sort keys hold a leaf id in 31 bits, the pad as
# the all-ones value: valid ids must stay below it.
_LEAF_LIMIT = (1 << 31) - 1


def _ranges(offs: "np.ndarray", cnts: "np.ndarray") -> "np.ndarray":
    """Concatenated ``arange(off, off + cnt)`` runs."""
    ends = np.cumsum(cnts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(offs - (ends - cnts), cnts) + np.arange(total)


def _all_lanes(flags: "np.ndarray") -> "np.ndarray":
    """``flags.all(axis=1)`` over a C-contiguous ``(n, 4)`` bool array:
    each row's four flag bytes read as one word."""
    return flags.view(np.uint32).reshape(-1) == 0x01010101


def _extend(arr: "np.ndarray", cap: int, fill) -> "np.ndarray":
    """``arr`` grown along its last axis to ``cap``, new slots ``fill``
    (broadcast)."""
    out = np.full(arr.shape[:-1] + (cap,), fill, dtype=np.int64)
    out[..., : arr.shape[-1]] = arr
    return out


def _build_cuts(leaves, tt, stamps, sign) -> List[Cut]:
    """Materialize ``Cut`` objects from column rows."""
    sizes = (leaves < CUT_LEAF_SENTINEL).sum(axis=1).tolist()
    cut_new = Cut.__new__
    out = []
    for row, t, srow, sgn, n in zip(
        leaves.tolist(), tt.tolist(), stamps.tolist(), sign.tolist(), sizes
    ):
        # Bypass the dataclass __init__ (and pre-seed the cached sign):
        # the fields are consistent by construction.
        cut = cut_new(Cut)
        cut.__dict__.update(
            leaves=tuple(row[:n]), tt=t, leaf_stamps=tuple(srow[:n]), sign=sgn
        )
        out.append(cut)
    return out


class EnumPlan:
    """The merges one enum stage needs (:meth:`CutManager.plan_closures`):
    task ``t`` merges AND node ``var[t]`` over fanin literals ``lit0[t]``
    / ``lit1[t]``, each input the fanin's own entry (``src* = -1``) or
    task ``src*[t]``'s result; ``waves[w]`` indexes dependency wave
    ``w``.  The first ``simple`` tasks are roots picked by vector
    compares; ``index`` maps each var walked per root to its task (None:
    order-dependent).  Merges fill ``off``/``cnt`` (pending until
    :meth:`CutManager.install_cuts`), ``pairs`` and ``epoch``;
    ``per_root`` counts the live roots not simple.  Built directly,
    every task is simple and wave 0."""

    def __init__(self, var, lit0, lit1, src0=None, src1=None, waves=None,
                 simple: Optional[int] = None,
                 index: Optional[Dict[int, Optional[int]]] = None):
        self.var = np.asarray(var, dtype=np.int64)
        n = len(self.var)
        self.lit0 = np.asarray(lit0, dtype=np.int64)
        self.lit1 = np.asarray(lit1, dtype=np.int64)
        stable = np.full(n, -1, dtype=np.int64)
        self.src0 = stable if src0 is None else np.asarray(src0, dtype=np.int64)
        self.src1 = stable if src1 is None else np.asarray(src1, dtype=np.int64)
        self.waves = [np.arange(n)] if waves is None else waves
        self.simple = n if simple is None else simple
        self.index = {} if index is None else index
        # Per task; a zero count: not merged yet.
        self.off, self.cnt, self.pairs = np.zeros((3, n), dtype=np.int64)
        self.epoch: Optional[int] = None
        self.per_root = 0

    def tasks_of(self, roots) -> "np.ndarray":
        """The tasks merging ``roots`` (each var is planned once)."""
        order = np.argsort(self.var)
        return order[np.searchsorted(self.var, roots, sorter=order)]


class CutColumns(NamedTuple):
    """The eval stage's resident task table: ``counts[i]`` consecutive
    rows of the column arrays belong to ``roots[i]``."""

    roots: List[int]
    counts: List[int]
    leaves: "np.ndarray"  # (N, 4) ascending, CUT_LEAF_SENTINEL-padded
    tt: "np.ndarray"      # (N,)
    stamps: "np.ndarray"  # (N, 4)

    def cut(self, i: int) -> Cut:
        """Materialize row ``i`` (the winning ``Candidate.cut``)."""
        row = self.leaves[i]
        n = int((row < CUT_LEAF_SENTINEL).sum())
        return Cut(tuple(row[:n].tolist()), int(self.tt[i]),
                   tuple(self.stamps[i, :n].tolist()))


class _Arena:
    """Append-only column store behind a manager's entries: ``cols`` =
    (leaves ``(n, 4)``, tt, leaf stamps ``(n, 4)``, sign)."""

    def __init__(self) -> None:
        self.used = 0
        self.cols = [np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64),
                     np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.uint64)]

    def append(self, *block) -> int:
        """Copy a block of rows (one array per column) in; returns its offset."""
        off, end = self.used, self.used + len(block[1])
        if end > len(self.cols[1]):
            cap = max(2 * len(self.cols[1]), end, _MIN_ARENA_ROWS)
            grown = [np.empty((cap,) + c.shape[1:], dtype=c.dtype) for c in self.cols]
            for new, old in zip(grown, self.cols):
                new[:off] = old[:off]
            self.cols = grown
        for col, rows in zip(self.cols, block):
            col[off:end] = rows
        self.used = end
        return off

    def compact(self, offs: "np.ndarray", cnts: "np.ndarray") -> "np.ndarray":
        """Keep only the row blocks at ascending ``offs`` (``cnts`` rows
        each), packed in order; returns their new offsets."""
        rows = _ranges(offs, cnts)
        for col in self.cols:
            col[: len(rows)] = col.take(rows, axis=0)
        self.used = len(rows)
        return np.cumsum(cnts) - cnts


class CutManager:
    """Enumerates and caches k-feasible cuts of an AIG."""

    def __init__(
        self,
        aig: Aig,
        k: int = 4,
        max_cuts: Optional[int] = DEFAULT_MAX_CUTS,
    ):
        if k < 2 or k > 4:
            raise CutError(f"cut size {k} unsupported (needs 2..4)")
        self.aig = aig
        self.k = k
        self.max_cuts = max_cuts
        self.work = 0  # merge operations performed (cost model input)
        # Vars the most recent cuts() call had to merge (the operators'
        # lock region for the shared recursion).
        self.last_computed: List[int] = []
        self._arena = _Arena()
        self._compact_at = 8 * _MIN_ARENA_ROWS
        # Graph mirrors patched through the mutation journal — life
        # stamps (dead nodes -1: no recorded stamp), structure stamps,
        # fanin literals (-1: not an AND) — and the index table.
        self._epoch: Optional[int] = None
        self._graph = np.empty((4, 0), dtype=np.int64)
        self._life, self._stamp = self._graph[:2]
        self._fan = self._graph[2:]
        self._tab = np.empty((4, 0), dtype=np.int64)
        # ``Cut`` lists built at the API edge: var -> (arena offset, cuts).
        self._memo: Dict[int, tuple] = {}
        self.vec_pairs = 0  # pairs merged by the kernel (observer counter)
        self.kernel_calls = 0  # kernel invocations (observer counter)
        # Enum-stage roots the plan sends down the per-root path
        # (observer counter).
        self.per_root_resolves = 0

    # ------------------------------------------------------------------

    def cuts(self, var: int) -> List[Cut]:
        """Cut set of ``var`` on the current graph (cached)."""
        self._resolve(var)
        return self._materialize(var)

    def fresh_cuts(self, var: int) -> List[Cut]:
        """Cut set with stamp-dead cuts purged: if any cached cut has a
        stale leaf, the node's cuts are re-merged from the (filtered)
        fanin sets."""
        self.fresh_block(var)
        return self._materialize(var)

    def eval_harvest(self, roots) -> CutColumns:
        """The eval stage's task table: each root's (stamp-validated)
        enumerated cut set, in worklist order, gathered into one
        :class:`CutColumns` — no ``Cut`` built.  Roots with a fresh live
        entry (all of them after an enum stage) are one gather; any
        other is resolved first, in order."""
        vars = np.asarray(roots, dtype=np.int64).reshape(-1)
        self._sync()
        live, _ = self._fresh_live(vars)
        if not live.all():
            for root in vars[~live].tolist():
                self.fresh_block(root)
        cnts = self._tab[_CNT, vars]
        rows = _ranges(self._tab[_OFF, vars], cnts)
        leaves, tt, stamps, _ = self._arena.cols
        return CutColumns(list(roots), cnts.tolist(), leaves.take(rows, axis=0),
                          tt.take(rows), stamps.take(rows, axis=0))

    def invalidate(self, var: int) -> None:
        """Drop the cache entry for one node."""
        self._sync()
        self._tab[:, var] = _NO_ENTRY

    def invalidate_tfo(self, var: int) -> int:
        """Recursively drop cache entries of ``var`` and its transitive
        fanout — the paper's "previous enumeration results ... of all
        transitive fanouts for each deleted node will be recursively
        cleared".  Returns the number of entries dropped."""
        self._sync()
        dropped = 0
        stack = [var]
        seen = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            if self._tab.item(_STAMP, v) != _NO_ENTRY:
                self._tab[:, v] = _NO_ENTRY
                dropped += 1
            if not self.aig.is_dead(v):
                stack.extend(self.aig.fanouts(v))
        return dropped

    # ------------------------------------------------------------------
    # Resolution and liveness

    def _fresh(self, var: int) -> bool:
        """``var``'s entry is keyed to its current stamp (synced table)."""
        return self._tab.item(_STAMP, var) == self.aig.stamp(var)

    def _fresh_live(self, vars: "np.ndarray", stamps=None):
        """``(live, fresh)`` per var (synced mirrors; ``stamps``, the
        vars' structure stamps, if already gathered): ``fresh``, the
        entry is keyed to the var's stamp; ``live``, also every cut
        alive.  The fresh entries not yet verified at this epoch are in
        one vector compare, and each all-alive one's epoch recorded."""
        tab, epoch = self._tab, self._epoch
        entry = tab.take(vars, axis=1)
        if stamps is None:
            stamps = self._stamp.take(vars)
        fresh = entry[_STAMP] == stamps
        unknown = np.flatnonzero(fresh & (entry[_ALIVE] != epoch))
        if len(unknown):
            cnts = entry[_CNT, unknown]
            rows_alive = self._rows_alive(_ranges(entry[_OFF, unknown], cnts))
            starts = np.cumsum(cnts) - cnts
            alive = unknown[np.logical_and.reduceat(rows_alive, starts)]
            entry[_ALIVE, alive] = epoch
            tab[_ALIVE, vars[alive]] = epoch
        return fresh & (entry[_ALIVE] == epoch), fresh

    def _resolve(self, var: int) -> None:
        """Make ``var``'s entry stamp-fresh, merging bottom-up whatever
        is missing or stale (the body of :meth:`cuts`)."""
        aig = self.aig
        if aig.is_dead(var):
            raise CutError(f"cut enumeration on dead node {var}")
        self._sync()
        self.last_computed = []
        fresh = self._fresh
        if fresh(var):
            return
        # Iterative post-order resolution (circuits are deep).
        stack = [var]
        while stack:
            v = stack[-1]
            if fresh(v):
                stack.pop()
                continue
            if not aig.is_and(v):
                self._install_trivial(v)
                stack.pop()
                continue
            pending = False
            for fv in (lit_var(aig.fanin0(v)), lit_var(aig.fanin1(v))):
                if not fresh(fv):
                    stack.append(fv)
                    pending = True
            if pending:
                continue
            off, cnt = self._merge_node(v)
            self._write(v, off, cnt, self._epoch)  # alive as merged
            self.last_computed.append(v)
            stack.pop()

    def fresh_block(self, var: int) -> None:
        """:meth:`fresh_cuts` without building a ``Cut``: resolve
        ``var``'s entry, re-merging it when one of its cuts has died."""
        self._resolve(var)
        if not self._all_alive(var):
            self.invalidate(var)
            self._resolve(var)

    def _write(self, vars, offs, cnts, alive) -> None:
        """Point the entries of ``vars`` at arena rows, keyed to their
        current stamps and verified all alive at epoch ``alive``."""
        tab = self._tab
        tab[_STAMP, vars] = self._stamp[vars]
        tab[_OFF, vars] = offs
        tab[_CNT, vars] = cnts
        tab[_ALIVE, vars] = alive

    def _trivial_rows(self, vars: "np.ndarray") -> int:
        """Append the trivial cut row of each of ``vars``; returns the
        first one's offset."""
        n = len(vars)
        leaves = np.full((n, 4), CUT_LEAF_SENTINEL, dtype=np.int64)
        leaves[:, 0] = vars
        stamps = np.full((n, 4), self._life[0], dtype=np.int64)
        stamps[:, 0] = self._life[vars]
        return self._arena.append(leaves, np.full(n, 0b10, dtype=np.int64),
                                  stamps, batch_cut_signs(leaves))

    def _install_trivial(self, vars) -> None:
        """Enter the trivial-cut set :meth:`cuts` keeps for non-AND
        nodes, for each of ``vars`` (synced mirrors)."""
        vars = np.asarray(vars, dtype=np.int64).reshape(-1)
        off = self._trivial_rows(vars)
        self._write(vars, off + np.arange(len(vars)), 1, self._epoch)

    def _materialize(self, var: int) -> List[Cut]:
        off = self._tab.item(_OFF, var)
        memo = self._memo.get(var)
        if memo is not None and memo[0] == off:
            return memo[1]
        rows = slice(off, off + self._tab.item(_CNT, var))
        cuts = _build_cuts(*(c[rows] for c in self._arena.cols))
        self._memo[var] = (off, cuts)
        return cuts

    def _grow(self, n: int) -> None:
        """Room for ``n`` vars in the mirrors and the table, plus slack:
        the last slot is never a var's (no entry, not an AND)."""
        if n < self._graph.shape[1]:
            return
        cap = n + n // 4 + 1
        self._graph = _extend(self._graph, cap, np.array([[0], [0], [-1], [-1]]))
        self._life, self._stamp = self._graph[:2]
        self._fan = self._graph[2:]
        self._tab = _extend(self._tab, cap, _NO_ENTRY)

    def _sync(self) -> None:
        """Bring the graph mirrors up to the graph's mutation epoch, and
        drop the entries of vars that died (never resolved again; a
        recycled id mismatches on stamp)."""
        aig = self.aig
        epoch = getattr(aig, "mutation_epoch", 0)  # snapshots never mutate
        if epoch == self._epoch:
            return
        life, kind = aig._life, aig._kind
        self._grow(len(life))
        dirty = None
        if self._epoch is not None:
            dirty = aig.dirty_since(self._epoch)
        stamp, f0, f1 = aig._stamp, aig._fanin0, aig._fanin1
        if dirty is None or 4 * len(dirty) > len(life):
            idx = np.arange(len(life))
            rows = np.array([life, stamp, f0, f1, kind], dtype=np.int64)
        else:
            idx = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
            rows = np.array([(life[v], stamp[v], f0[v], f1[v], kind[v])
                             for v in idx.tolist()], dtype=np.int64).reshape(-1, 5).T
        dead = rows[4] == KIND_DEAD
        rows[0, dead] = -1
        self._graph[:, idx] = rows[:4]
        self._tab[:, idx[dead]] = _NO_ENTRY
        self._epoch = epoch

    def _rows_alive(self, rows) -> "np.ndarray":
        """Per-row ``cut_is_stamp_alive`` (index array or slice; synced mirror)."""
        leaves, _, stamps, _ = self._arena.cols
        if not isinstance(rows, slice):
            leaves, stamps = leaves.take(rows, axis=0), stamps.take(rows, axis=0)
            rows = slice(None)
        return _all_lanes(self._life.take(leaves[rows] & _ID_MASK) == stamps[rows])

    def _all_alive(self, var: int) -> bool:
        """Every cut of ``var``'s entry alive (memoized per epoch)."""
        self._sync()
        tab = self._tab
        if tab.item(_ALIVE, var) == self._epoch:
            return True
        off = tab.item(_OFF, var)
        if not self._rows_alive(slice(off, off + tab.item(_CNT, var))).all():
            return False
        tab[_ALIVE, var] = self._epoch
        return True

    def has_fresh_live_cuts(self, var: int) -> bool:
        """True when ``var``'s entry is stamp-fresh and every cached cut is
        alive: :meth:`fresh_cuts` then answers from cache, no merge work."""
        self._sync()
        return self._fresh(var) and self._all_alive(var)

    def has_fresh_entry(self, var: int) -> bool:
        """True when ``var``'s entry is keyed to its current stamp — all
        :meth:`_resolve` asks of a fanin before merging over it."""
        self._sync()
        return self._fresh(var)

    # ------------------------------------------------------------------
    # Planning and install (the batch hand-off)

    def _stage_input(self, fv: int) -> Optional[bool]:
        """Fanin ``fv``'s cut set as an enum-stage merge input (synced
        table): True when **stable for the whole stage** — a stamp-fresh
        entry with every cut alive (never recomputed mid-stage), or a
        non-AND (its trivial entry made here if missing).  None: it
        needs a merge first (missing or stamp-stale).  False:
        order-dependent — stamp-fresh with dead cuts, maybe a worklist
        root re-merged before its reader runs."""
        if self._fresh(fv):
            return self._all_alive(fv)
        if self.aig.is_and(fv):
            return None
        self._install_trivial(fv)
        return True

    def enum_harvest(self, root: int):
        """The fanin literals ``(f0, f1)`` of ``root`` when its merge is
        a *pure function of stage-start state* — an AND node whose own
        entry needs (re)computing and whose fanin sets are both stable
        (:meth:`_stage_input`) — else None: a cache answer or the
        closure of length one of :meth:`plan_closures`, which applies
        the same test to a whole worklist in vector passes."""
        aig = self.aig
        if not aig.is_and(root) or self.has_fresh_live_cuts(root):
            return None
        f0, f1 = aig.fanin0(root), aig.fanin1(root)
        stable = self._stage_input(lit_var(f0)) and self._stage_input(lit_var(f1))
        return (f0, f1) if stable else None

    def plan_closures(self, roots) -> EnumPlan:
        """The merges an enum stage over ``roots`` needs, each exactly
        once: the live roots without a fresh live entry and, below them,
        every fanin whose entry is missing or stamp-stale — what
        :meth:`_resolve` would merge.

        Vector passes over the table prime liveness and pick out the
        roots whose merge is a wave-0 task over two stable inputs
        (:meth:`_stage_input`'s rule, trivial entries of non-AND fanins
        included): the plan's ``simple`` tasks.  Only the other AND
        roots without a fresh live entry are walked per root, as
        :meth:`_resolve` would walk them: a var merging over stable
        inputs and results of lower waves is a task of the wave above
        them; one with an order-dependent input (stamp-fresh with dead
        cuts, or a var planned so) maps to None in ``index`` and is
        left to :meth:`fresh_block`.  Adds the plan's ``per_root`` to
        :attr:`per_root_resolves`."""
        self._sync()
        roots = np.asarray(roots, dtype=np.int64).reshape(-1)
        roots = roots.compress(self._life.take(roots) >= 0)
        n = len(roots)
        lits = self._fan.take(roots, axis=1)  # -1: not an AND (reads slot -1)
        probe = np.concatenate([roots, lits.reshape(-1) >> 1])
        graph = self._graph.take(probe, axis=1)  # life, stamp, fanins
        live, fresh = self._fresh_live(probe, graph[1])
        is_and = graph[2] >= 0
        cand = is_and[:n] & ~live[:n]
        cold = ~(fresh[n:] | is_and[n:])  # a non-AND fanin without an entry
        if cold.any():
            cold &= np.concatenate([cand, cand])
            self._install_trivial(sorted(set(probe[n:].compress(cold).tolist())))
        stable = np.where(fresh[n:], live[n:], ~is_and[n:])
        pick = np.flatnonzero(cand & stable[:n] & stable[n:])
        simple = roots[pick]
        n_simple = len(pick)
        cand[pick] = False
        if not cand.any():
            plan = EnumPlan(simple, lits[0, pick], lits[1, pick])
        else:
            index = dict(zip(simple.tolist(), range(n_simple)))
            walked: List[tuple] = []  # (var, lit0, lit1, src0, src1, wave)
            for root in roots[cand].tolist():
                self._walk(root, index, walked, n_simple)
            rows = np.array(walked, dtype=np.int64).reshape(-1, 6).T
            tasks = n_simple + np.arange(len(walked))
            waves = [np.concatenate([np.arange(n_simple), tasks[rows[5] == 0]])]
            waves += [tasks[rows[5] == w] for w in range(1, rows[5].max(initial=0) + 1)]
            stable_src = np.full(n_simple, -1, dtype=np.int64)
            heads = (simple, lits[0, pick], lits[1, pick], stable_src, stable_src)
            plan = EnumPlan(*(np.concatenate([head, row])
                              for head, row in zip(heads, rows)),
                            waves, n_simple, index)
        plan.per_root = len(roots) - n_simple
        self.per_root_resolves += plan.per_root
        return plan

    def _walk(self, root: int, index, walked, n_simple: int) -> None:
        """Plan ``root``'s cold closure (:meth:`plan_closures`):
        post-order, pruned at planned vars, non-ANDs and cache answers."""
        aig = self.aig
        stack = [root]
        while stack:  # iterative: a cold closure can be TFI-deep
            v = stack[-1]
            if v in index or not aig.is_and(v) or self.has_fresh_live_cuts(v):
                stack.pop()  # level drift or a shared fanin; a cache answer
                continue
            lits = (aig.fanin0(v), aig.fanin1(v))
            wave, srcs, first, dependent = 0, [], [], False
            for lit in lits:
                fv = lit_var(lit)
                stable = self._stage_input(fv)
                src = -1
                if stable is None and fv not in index:
                    first.append(fv)
                elif stable is None:
                    src = index[fv]
                    if src is None:
                        dependent = True
                    else:
                        below = walked[src - n_simple][5] if src >= n_simple else 0
                        wave = max(wave, below + 1)
                dependent = dependent or stable is False
                srcs.append(src)
            if dependent:
                index[v] = None
            elif first:
                stack.extend(first)
                continue
            else:
                index[v] = n_simple + len(walked)
                walked.append((v,) + lits + tuple(srcs) + (wave,))
            stack.pop()

    def install_cuts(self, plan: EnumPlan, tasks) -> None:
        """Install the merged results of plan ``tasks`` (from
        :meth:`merge_tasks_columnar`) as their vars' entries in one
        vector write, keyed to their current stamps.  A result is alive
        at the epoch it was merged in (its leaves are its inputs' live
        leaves plus the root), which is recorded rather than
        re-verified.  The tasks' merge pairs are charged to
        :attr:`work`, byte-identical with a per-root merge."""
        self._sync()
        tasks = np.asarray(tasks, dtype=np.int64)
        self._write(plan.var[tasks], plan.off[tasks], plan.cnt[tasks], plan.epoch)
        self.work += int(plan.pairs[tasks].sum())

    # ------------------------------------------------------------------
    # Merging

    def _live_rows(self, var: int) -> "np.ndarray":
        """Arena row indices of ``var``'s live cuts (the trivial cut's
        row when none survive)."""
        off = self._tab.item(_OFF, var)  # fanin entries are resolved first
        rows = np.arange(off, off + self._tab.item(_CNT, var))
        if self._all_alive(var):
            return rows
        alive = self._rows_alive(rows)
        if alive.any():
            return rows[alive]
        off = self._trivial_rows(np.array([var], dtype=np.int64))
        return np.arange(off, off + 1)

    def _merge_node(self, v: int):
        """Merge ``v`` over its fanins' live cuts; returns its result
        rows as ``(offset, count)``."""
        aig = self.aig
        f0, f1 = aig.fanin0(v), aig.fanin1(v)
        rows0, rows1 = self._live_rows(lit_var(f0)), self._live_rows(lit_var(f1))
        n_pairs = len(rows0) * len(rows1)
        self.work += n_pairs
        self.vec_pairs += n_pairs
        out = self._columnar_core(
            np.array([v]), np.array([lit_compl(f0)]), np.array([lit_compl(f1)]),
            rows0, np.array([len(rows0)]), rows1, np.array([len(rows1)]),
        )
        return self._arena.append(*out[:4]), int(out[4][0])

    def _task_vectors(self, plan: EnumPlan, tasks: "np.ndarray"):
        """The kernel's task vectors ``(roots, comp0, comp1, off0, n0s,
        off1, n1s)`` of plan ``tasks``, each input the fanin's own entry
        or an earlier task's result; records the tasks' merge pairs."""
        out = [plan.var[tasks]]
        sides = []
        for lits, srcs in ((plan.lit0, plan.src0), (plan.lit1, plan.src1)):
            lit, src = lits[tasks], srcs[tasks]
            stable = src < 0
            var = lit >> 1
            out.append((lit & 1).astype(bool))
            sides += [np.where(stable, self._tab[_OFF, var], plan.off[src]),
                      np.where(stable, self._tab[_CNT, var], plan.cnt[src])]
        plan.pairs[tasks] = sides[1] * sides[3]
        return tuple(out + sides)

    def merge_tasks_columnar(self, plan: EnumPlan, tasks, observer=None) -> None:
        """Merge plan ``tasks`` (one dependency wave) in one kernel
        invocation: gather their inputs' rows from the table and from
        earlier waves' results, run the kernel and record each task's
        result rows in ``plan`` — *pending* until :meth:`install_cuts`
        installs them (a compaction here moves them along).  This method
        does **not** touch :attr:`work`: the replay charges it at the
        install.  A metric-enabled ``observer`` gets ``enum_batch_size``
        and per-phase ``enum_kernel_seconds``.
        """
        tasks = np.asarray(tasks, dtype=np.int64)
        if not len(tasks):
            return
        self.compact(plan)
        roots, comp0, comp1, off0, n0s, off1, n1s = self._task_vectors(plan, tasks)
        total_pairs = int((n0s * n1s).sum())
        self.vec_pairs += total_pairs
        *block, counts, union_s, filter_s = self._columnar_core(
            roots, comp0, comp1, _ranges(off0, n0s), n0s, _ranges(off1, n1s),
            n1s)
        if observer is not None and observer.enabled:
            observer.observe("enum_batch_size", float(total_pairs))
            observer.observe("enum_kernel_seconds", union_s, phase="union")
            observer.observe("enum_kernel_seconds", filter_s, phase="filter")
        base = self._arena.append(*block)
        plan.off[tasks] = base + np.cumsum(counts) - counts
        plan.cnt[tasks] = counts
        plan.epoch = self._epoch

    def compact(self, plan: EnumPlan) -> None:
        """Reclaim arena rows no entry references (re-merged, never
        installed, scratch) once they outnumber the live ones.  Call
        only between batch merges: the only rows outside the table are
        then ``plan``'s pending results, which move with the
        entries."""
        arena = self._arena
        if arena.used < self._compact_at:
            return
        tab = self._tab
        held = np.flatnonzero(tab[_STAMP] != _NO_ENTRY)
        done = np.flatnonzero(plan.cnt)
        offs = np.concatenate([tab[_OFF, held], plan.off[done]])
        uniq, first = np.unique(offs, return_index=True)
        uniq_cnts = np.concatenate([tab[_CNT, held], plan.cnt[done]])[first]
        if 2 * int(uniq_cnts.sum()) < arena.used:
            moved = arena.compact(uniq, uniq_cnts)
            tab[_OFF, held] = moved[np.searchsorted(uniq, tab[_OFF, held])]
            plan.off[done] = moved[np.searchsorted(uniq, plan.off[done])]
            self._memo.clear()
        self._compact_at = max(8 * _MIN_ARENA_ROWS, 2 * arena.used)

    def _columnar_core(self, roots, comp0, comp1, rows0, n0s, rows1, n1s):
        """The batch merge kernel shared by every columnar entry point
        (DESIGN.md "cut-merge kernel" has the soundness arguments).

        Task ``t`` merges arena rows ``rows0[...]`` (``n0s[t]`` of
        them, fanin 0) with ``rows1[...]`` for AND node ``roots[t]``
        with fanin complements ``comp0[t]``/``comp1[t]``.  Returns the
        result block columns ``(leaves, tt, stamps, sign)`` — each
        task's rows contiguous, sorted by ``(-size, leaves)``, cut at
        ``max_cuts``, trivial cut last — the per-task row counts, and
        the union-/filter-phase seconds.  Leaf ids must stay below
        2**31 - 1 (:class:`CutError` otherwise).
        """
        t_start = time.perf_counter()
        self.kernel_calls += 1
        self._sync()
        src_leaves, src_tt, _, src_sign = self._arena.cols
        k = self.k
        n_tasks = len(roots)

        # Each source row's columns, gathered once: the pairs index
        # these (``i0``/``i1``), not the arena.  (Gathers are ``take``s
        # and masks ``compress``es throughout: numpy's fancy-index paths
        # are several times slower on these shapes.)
        tags0 = tag_leaves(src_leaves.take(rows0, axis=0), 1)
        tags1 = tag_leaves(src_leaves.take(rows1, axis=0), 2)
        sign0, sign1 = src_sign.take(rows0), src_sign.take(rows1)
        tt0, tt1 = src_tt.take(rows0), src_tt.take(rows1)

        # Row-major pair grid per task (c0 outer, c1 inner): the nested
        # loop's insertion order, which decides duplicates below.  Each
        # fanin-0 row repeats once per fanin-1 row of its task, and those
        # run through the task's fanin-1 rows.
        n1_of0 = np.repeat(n1s, n0s)
        i0 = np.repeat(np.arange(len(n1_of0)), n1_of0)
        i1 = _ranges(np.repeat(np.cumsum(n1s) - n1s, n0s), n1_of0)
        # Sign prefilter: the union's signature has at most one bit per
        # leaf, so more than k bits means more than k leaves.
        usign = sign0.take(i0) | sign1.take(i1)
        keep = np.flatnonzero(np.bitwise_count(usign) <= k)
        i0, i1, usign = i0.take(keep), i1.take(keep), usign.take(keep)
        task_of = np.repeat(np.arange(n_tasks), n0s).take(i0)
        tags, sizes = batch_union_leaves(tags0.take(i0, axis=0),
                                         tags1.take(i1, axis=0))
        feas = np.flatnonzero(sizes <= k)
        i0, i1, task_of, usign, sizes = (
            col.take(feas) for col in (i0, i1, task_of, usign, sizes))
        tags = tags[:, :4].take(feas, axis=0)
        valid = tags < CUT_LEAF_SENTINEL
        union = np.where(valid, tags >> 2, _LEAF_LIMIT)
        if ((union >= _LEAF_LIMIT) & valid).any():
            raise CutError(f"cut leaf id beyond the kernel's {_LEAF_LIMIT - 1}")
        union_seconds = time.perf_counter() - t_start

        # Dominance filter, closed form of the insertion-order one: keep
        # the ⊆-minimal leaf sets, first occurrence of each.  One stable
        # sort over three packed keys — (task, -size, l0), (l1, l2), l3
        # — gives the output order and makes duplicates adjacent.
        t_start = time.perf_counter()
        key0 = ((task_of * 8 + 4 - sizes) << 31) | union[:, 0]
        key1 = (union[:, 1] << 31) | union[:, 2]
        key2 = union[:, 3]
        order = np.lexsort((key2, key1, key0))
        s0, s1, s2 = key0.take(order), key1.take(order), key2.take(order)
        first = np.ones(len(order), dtype=bool)
        first[1:] = (s0[1:] != s0[:-1]) | (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
        uniq = order.compress(first)
        u_task, u_size, u_sign = task_of.take(uniq), sizes.take(uniq), usign.take(uniq)
        u_leaves = union.take(uniq, axis=0)
        per_task = np.bincount(u_task, minlength=n_tasks)
        seg_ends = np.cumsum(per_task)
        # A set can only be dominated by a strictly smaller one of its
        # task; sizes descend within a task, so those are the rows from
        # the first smaller-size row to the task's end.
        key = u_task * 8 - u_size
        lo = np.searchsorted(key, key, side="right")
        n_small = seg_ends.take(u_task) - lo
        big = np.repeat(np.arange(len(uniq)), n_small)
        small = _ranges(lo, n_small)
        cand = np.flatnonzero((u_sign.take(small) & ~u_sign.take(big)) == 0)
        big, small = big.take(cand), small.take(cand)
        sm_leaves = u_leaves.take(small, axis=0)
        hits = sm_leaves[:, :, None] == u_leaves.take(big, axis=0)[:, None, :]
        covered = (hits.view(np.uint32)[..., 0] != 0) | (sm_leaves == _LEAF_LIMIT)
        kept = np.ones(len(uniq), dtype=bool)
        kept[big.compress(_all_lanes(covered))] = False
        if self.max_cuts is not None:
            before = np.cumsum(kept) - kept
            rank = before - before.take((seg_ends - per_task).take(u_task))
            kept &= rank < self.max_cuts
        sel = uniq.compress(kept)
        sel_task = u_task.compress(kept)
        sel_leaves = u_leaves.compress(kept, axis=0)

        # Truth tables of the survivors: one LUT gather for both sides,
        # keyed by each side's table and the mask of union positions its
        # leaves fill — the side's tag bit in each lane, the four lane
        # bytes packed into four bits by one multiply.
        bits = (tags.take(sel, axis=0)[:, None, :] >> _SIDE_BITS) & 1
        lanes = bits.astype(np.uint8).view("<u4")[..., 0].astype(np.int64)
        lanes = (lanes * _LANE_PACK >> 24) & 15
        src = np.stack([tt0.take(i0.take(sel)), tt1.take(i1.take(sel))], axis=1)
        flip = np.stack([comp0, comp1], axis=1) * 0xFFFF
        sides = lift_lut().reshape(-1).take(src * 16 + lanes) ^ \
            flip.take(sel_task, axis=0)
        tt = _FULL_MASKS_ARR.take(sizes.take(sel)) & sides[:, 0] & sides[:, 1]

        # Result blocks: each task's survivors, then its trivial cut.
        life = self._life
        sel_leaves = np.where(sel_leaves == _LEAF_LIMIT, CUT_LEAF_SENTINEL,
                              sel_leaves)
        counts = np.bincount(sel_task, minlength=n_tasks) + 1
        n_out = len(sel) + n_tasks
        pos = np.arange(len(sel)) + sel_task
        triv = np.cumsum(counts) - 1
        out_leaves = np.full((n_out, 4), CUT_LEAF_SENTINEL, dtype=np.int64)
        out_leaves[pos] = sel_leaves
        out_leaves[triv, 0] = roots
        out_tt = np.full(n_out, 0b10, dtype=np.int64)
        out_tt[pos] = tt
        out_stamps = np.full((n_out, 4), life[0], dtype=np.int64)
        out_stamps[pos] = life[sel_leaves & _ID_MASK]
        out_stamps[triv, 0] = life[roots]
        out_sign = np.empty(n_out, dtype=np.uint64)
        out_sign[pos] = usign.take(sel)
        out_sign[triv] = np.uint64(1) << (roots.astype(np.uint64) & np.uint64(63))
        filter_seconds = time.perf_counter() - t_start
        return (out_leaves, out_tt, out_stamps, out_sign, counts,
                union_seconds, filter_seconds)
