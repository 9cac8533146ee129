"""K-feasible cut enumeration with a stamp-validated, column-resident cache.

This is the paper's *Cut Manager*.  Cut sets are computed bottom-up by
merging fanin cut sets (the classic cut enumeration of Mishchenko et
al.) and cached per node.  A cache entry is keyed to the node's stamp,
so restructured or reused nodes are transparently recomputed; stale
fanin *cuts* (cuts whose own leaves have died) are filtered out at
merge time, which keeps the inductive validity invariant of
:mod:`repro.cuts.cut` intact.

Cut sets live as rows of one **arena** per manager (42-byte rows of
int32 leaves padded with var 0, a 16-bit truth table, int32 leaf
stamps and a 64-bit sign, reserved once), and the cache is an **index
table** over it: per var ``(entry stamp, arena offset, row count, alive
epoch)``, -1 for no entry.  Every entry
is rows — the trivial cut of a non-AND node included — so an enum stage
plans, hands off and installs a whole worklist in vector passes
(:meth:`CutManager.plan_closures`, :meth:`CutManager.
merge_tasks_columnar`, :meth:`CutManager.install_cuts`), liveness is a
vector compare against the graph's own life column, and the evaluation
engine reads the columns directly.  :class:`~repro.cuts.cut.Cut` lists are
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
from itertools import chain
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..aig import Aig
from ..aig.graph import KIND_AND, KIND_DEAD
from ..aig.literals import lit_compl, lit_var
from ..errors import CutError
from ..npn.truth import (
    batch_cut_signs,
    batch_union_leaves,
    full_mask,
    lift_bytes,
    tag_leaves,
)
from .cut import Cut

DEFAULT_MAX_CUTS = 12

# Masks indexed by cut width; merge never recomputes full_mask().
_FULL_MASKS_ARR = np.array([full_mask(n) for n in range(5)], dtype=np.int64)

_SIDES = np.array([[1], [2]], dtype=np.int64)  # a leaf tag's side bit
# Bit 0 of each byte of a 32-bit word, and the multiplier moving those
# four bits to bits 24..27 (no other partial product lands there).
_LANE_BITS, _LANE_GATHER = 0x01010101, 0x01020408
# A table's low byte selects a row of ``lift_bytes()``'s first 256, its
# high byte one of the next 256: the shift and the row offset per byte.
_BYTE_SHIFT = np.array([0, 8], dtype=np.uint16).reshape(2, 1, 1)
_BYTE_ROW = np.array([0, 256], dtype=np.uint16).reshape(2, 1, 1)
_MIN_ARENA_ROWS = 1024
# The most cut pairs one kernel call merges: a wider dependency wave
# runs as several calls over contiguous task chunks, so the kernel's
# scratch (60-75 bytes a pair) stays bounded however wide the circuit
# (DESIGN §4c "Chunked waves").  A chunk holds the tasks whose
# first pair falls in one block of this many, so its pairs stay below
# the cap plus one task's.
_WAVE_PAIRS = 1 << 14
_WHOLE_WAVE = (slice(None),)  # a wave under the cap: no chunking call
# An arena row: four leaves (ascending, padded with var 0 — the
# constant, never a leaf, so a pad lane indexes the graph's life column
# and its stamp lane, var 0's life stamp, always compares equal), the truth
# table, four leaf stamps, the sign.  16 + 2 + 16 + 8 bytes.
_COLUMNS = (((4,), np.int32), ((), np.uint16), ((4,), np.int32), ((), np.uint64))

# The index table's rows; -1 throughout a var's column: no entry.
_STAMP, _OFF, _CNT, _ALIVE = range(4)
_NO_ENTRY = -1
# The kernel's packed sort keys hold a leaf id in 31 bits, the pad as
# the all-ones value: valid ids must stay below it.
_LEAF_LIMIT = (1 << 31) - 1
# Leaf stamps are stored as int32: a graph whose stamp counter passes
# this is refused where stamps enter the arena, never wrapped.
_STAMP_LIMIT = (1 << 31) - 1


def _ranges(offs: "np.ndarray", cnts: "np.ndarray") -> "np.ndarray":
    """Concatenated ``arange(off, off + cnt)`` runs."""
    ends = cnts.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    return (offs - ends + cnts).repeat(cnts) + np.arange(total)


def _wave_chunks(starts: "np.ndarray") -> list:
    """A wide wave's tasks as contiguous slices, one per block of
    :data:`_WAVE_PAIRS` pairs that some task starts in (``starts``:
    the pairs of the wave's tasks before each)."""
    block = starts // _WAVE_PAIRS
    bounds = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(starts)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _all_lanes(flags: "np.ndarray") -> "np.ndarray":
    """``flags.all(axis=1)`` over a C-contiguous ``(n, 4)`` bool array:
    each row's four flag bytes read as one word."""
    return flags.view(np.uint32).reshape(-1) == 0x01010101


def _build_cuts(leaves, tt, stamps, sign) -> List[Cut]:
    """Materialize ``Cut`` objects from column rows."""
    sizes = (leaves != 0).sum(axis=1).tolist()
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
    task ``t`` merges AND node ``var[t]`` over fanin literals
    ``lit[0, t]`` / ``lit[1, t]``, each input the fanin's own entry
    (``src[side, t] = -1``) or task ``src[side, t]``'s result;
    ``waves[w]`` indexes dependency wave ``w``.  The first ``simple``
    tasks are roots picked by vector compares; ``index`` maps each var
    walked per root to its task (None: order-dependent).  Merges fill
    ``res`` — row 0 each result's arena offset, row 1 its row count,
    pending until :meth:`CutManager.install_cuts` — ``pairs`` and
    ``epoch``; ``per_root`` counts the live roots not simple.  Built
    directly, every task is simple and wave 0.  Each field is one array
    and no view of another, so a copied or pickled plan merges like
    the original."""

    def __init__(self, var, lit0, lit1, src0=None, src1=None, waves=None,
                 simple: Optional[int] = None,
                 index: Optional[Dict[int, Optional[int]]] = None):
        self.var = np.asarray(var, dtype=np.int64)
        n = len(self.var)
        self.lit = np.array((lit0, lit1), dtype=np.int64).reshape(2, n)
        self.src = np.full((2, n), -1, dtype=np.int64)
        if src0 is not None:
            self.src[:] = src0, src1
        self.waves = [np.arange(n)] if waves is None else waves
        self.simple = n if simple is None else simple
        self.index = {} if index is None else index
        # Per task; a zero count: not merged yet.
        self.res = np.zeros((2, n), dtype=np.int64)
        self.pairs = np.zeros(n, dtype=np.int64)
        self.epoch: Optional[int] = None
        self.per_root = 0


class CutColumns(NamedTuple):
    """The eval stage's resident task table: ``counts[i]`` consecutive
    rows of the column arrays belong to ``roots[i]``."""

    roots: List[int]
    counts: List[int]
    leaves: "np.ndarray"  # (N, 4) int32, ascending, padded with var 0
    tt: "np.ndarray"      # (N,) uint16
    stamps: "np.ndarray"  # (N, 4) int32

    def cut(self, i: int) -> Cut:
        """Materialize row ``i`` (the winning ``Candidate.cut``)."""
        row = self.leaves[i]
        n = int((row != 0).sum())
        return Cut(tuple(row[:n].tolist()), int(self.tt[i]),
                   tuple(self.stamps[i, :n].tolist()))


class _Arena:
    """Append-only column store behind a manager's entries: ``cols`` =
    (leaves ``(n, 4)``, tt, leaf stamps ``(n, 4)``, sign), one 42-byte
    row per cut (:data:`_COLUMNS`).  ``reserve`` rows are allocated up
    front — rows never written cost address space, not resident memory
    — and an append past the capacity doubles it, one copy of the used
    rows counted in :attr:`growths`."""

    def __init__(self, reserve: int = 0) -> None:
        self.used = 0
        self.growths = 0  # capacity doublings (each copies the used rows)
        self.cols = self.block(max(reserve, _MIN_ARENA_ROWS), np.empty)

    @staticmethod
    def block(n: int, alloc=np.zeros) -> list:
        """``n`` rows in the column dtypes (``np.zeros``: all pad), to be
        filled in and appended."""
        return [alloc((n,) + shape, dtype=dtype) for shape, dtype in _COLUMNS]

    @property
    def reserved(self) -> int:
        """Rows allocated."""
        return len(self.cols[1])

    def rows(self, sel: slice) -> tuple:
        """Views of the columns of rows ``sel``."""
        return tuple(col[sel] for col in self.cols)

    def append(self, *block) -> int:
        """Copy a block of rows (one array per column, or a scalar
        broadcast down a column) in; returns its offset."""
        off, end = self.used, self.used + len(block[0])
        if end > len(self.cols[1]):
            grown = self.block(max(2 * len(self.cols[1]), end), np.empty)
            for new, old in zip(grown, self.cols):
                new[:off] = old[:off]
            self.cols = grown
            self.growths += 1
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
        # Twice the most rows the entries can hold: the stale rows a
        # compaction check leaves never outnumber the live ones (DESIGN
        # §4c "Arena and ownership").  Unbounded sets grow by doubling.
        self._arena = _Arena(0 if max_cuts is None
                             else 2 * (max_cuts + 1) * aig.size)
        self._compact_at = 8 * _MIN_ARENA_ROWS
        # The index table.  The graph's stamp and life columns are read
        # in place, and its stamp counter (``Aig.mutation_epoch``, read
        # as the attribute on the per-call paths) dates the alive memo.
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
        self._fit()
        live, _, entry = self._fresh_live(vars)
        if not live.all():
            for root in vars[~live].tolist():
                self.fresh_block(root)
            entry = self._tab.take(vars, axis=1)
        cnts = entry[_CNT]
        rows = _ranges(entry[_OFF], cnts)
        leaves, tt, stamps, _ = self._arena.cols  # int32, uint16, int32
        return CutColumns(list(roots), cnts.tolist(), leaves.take(rows, axis=0),
                          tt.take(rows), stamps.take(rows, axis=0))

    def invalidate(self, var: int) -> None:
        """Drop the cache entry for one node."""
        self._fit()
        self._tab[:, var] = _NO_ENTRY

    # ------------------------------------------------------------------
    # Resolution and liveness

    def _fresh(self, var: int) -> bool:
        """``var``'s entry is keyed to its current stamp (fitted table)."""
        return self._tab.item(_STAMP, var) == self.aig.stamp(var)

    def _fresh_live(self, vars: "np.ndarray"):
        """``(live, fresh, entry)`` per var (fitted table): ``fresh``,
        the entry is keyed to the var's stamp; ``live``, also every cut
        alive; ``entry``, the vars' table columns.  The fresh entries
        not yet verified at this epoch are in one vector compare, and
        each all-alive one's epoch recorded."""
        tab, epoch = self._tab, self.aig._stamp_counter
        entry = tab.take(vars, axis=1)
        fresh = entry[_STAMP] == self.aig._stamp.take(vars)
        unknown = (fresh & (entry[_ALIVE] != epoch)).nonzero()[0]
        if len(unknown):
            sub = entry.take(unknown, axis=1)
            cnts = sub[_CNT]
            rows_alive = self._rows_alive(_ranges(sub[_OFF], cnts))
            alive = unknown.compress(np.logical_and.reduceat(
                rows_alive, cnts.cumsum() - cnts))
            entry[_ALIVE, alive] = epoch
            tab[_ALIVE, vars.take(alive)] = epoch
        return fresh & (entry[_ALIVE] == epoch), fresh, entry

    def _resolve(self, var: int) -> None:
        """Make ``var``'s entry stamp-fresh, merging bottom-up whatever
        is missing or stale (the body of :meth:`cuts`)."""
        aig = self.aig
        if aig.is_dead(var):
            raise CutError(f"cut enumeration on dead node {var}")
        self._fit()
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
            self._write(v, off, cnt, aig._stamp_counter)  # alive as merged
            self.last_computed.append(v)
            stack.pop()

    def fresh_block(self, var: int) -> None:
        """:meth:`fresh_cuts` without building a ``Cut``: resolve
        ``var``'s entry, re-merging it when one of its cuts has died."""
        self._resolve(var)
        if not self._live(var):
            self.invalidate(var)
            self._resolve(var)

    def _write(self, vars, offs, cnts, alive) -> None:
        """Point the entries of ``vars`` at arena rows, keyed to their
        current stamps and verified all alive at epoch ``alive``."""
        tab = self._tab
        tab[_STAMP, vars] = self.aig._stamp[vars]
        tab[_OFF, vars] = offs
        tab[_CNT, vars] = cnts
        tab[_ALIVE, vars] = alive

    def _trivial_rows(self, vars: "np.ndarray") -> int:
        """Append the trivial cut row of each of ``vars``; returns the
        first one's offset."""
        leaves = np.zeros((len(vars), 4), dtype=np.int32)
        leaves[:, 0] = vars
        return self._arena.append(leaves, 0b10, self._leaf_stamps(leaves),
                                  batch_cut_signs(leaves))

    def _leaf_stamps(self, leaves: "np.ndarray") -> "np.ndarray":
        """The life stamps of ``leaves``, for the arena's int32 stamp
        lanes.  A stamp counter past int32 raises :class:`CutError`: the
        lanes would alias an old stamp."""
        aig = self.aig
        if aig._stamp_counter > _STAMP_LIMIT:
            raise CutError(f"stamp counter {aig._stamp_counter} beyond the cut "
                           f"arena's int32 leaf stamps ({_STAMP_LIMIT})")
        return aig._life[leaves]

    def _install_trivial(self, vars) -> None:
        """Enter the trivial-cut set :meth:`cuts` keeps for non-AND
        nodes, for each of ``vars`` (fitted table)."""
        vars = np.asarray(vars, dtype=np.int64).reshape(-1)
        off = self._trivial_rows(vars)
        self._write(vars, off + np.arange(len(vars)), 1, self.aig._stamp_counter)

    def _materialize(self, var: int) -> List[Cut]:
        off = self._tab.item(_OFF, var)
        memo = self._memo.get(var)
        if memo is not None and memo[0] == off:
            return memo[1]
        rows = slice(off, off + self._tab.item(_CNT, var))
        cuts = _build_cuts(*self._arena.rows(rows))
        self._memo[var] = (off, cuts)
        return cuts

    def _fit(self) -> None:
        """Room in the index table for every var of the graph, plus
        slack: the last slot is never a var's (no entry)."""
        n = len(self.aig._kind)
        if n < self._tab.shape[1]:
            return
        tab = np.full((4, n + n // 4 + 1), _NO_ENTRY, dtype=np.int64)
        tab[:, : self._tab.shape[1]] = self._tab
        self._tab = tab

    def _rows_alive(self, rows) -> "np.ndarray":
        """Per-row ``cut_is_stamp_alive`` (index array or slice): every
        leaf's recorded stamp is its life stamp — a deleted leaf's life
        stamp is its deletion's, which no row recorded."""
        leaves, _, stamps, _ = self._arena.cols
        if not isinstance(rows, slice):
            leaves, stamps = leaves.take(rows, axis=0), stamps.take(rows, axis=0)
            rows = slice(None)
        return _all_lanes(self.aig._life.take(leaves[rows]) == stamps[rows])

    def _live(self, var: int) -> bool:
        """Every cut of ``var``'s entry alive (fitted table; memoized per
        epoch)."""
        tab, epoch = self._tab, self.aig._stamp_counter
        if tab.item(_ALIVE, var) == epoch:
            return True
        off = tab.item(_OFF, var)
        if not self._rows_alive(slice(off, off + tab.item(_CNT, var))).all():
            return False
        tab[_ALIVE, var] = epoch
        return True

    def has_fresh_live_cuts(self, var: int) -> bool:
        """True when ``var``'s entry is stamp-fresh and every cached cut is
        alive: :meth:`fresh_cuts` then answers from cache, no merge work."""
        self._fit()
        return self._fresh(var) and self._live(var)

    def has_fresh_entry(self, var: int) -> bool:
        """True when ``var``'s entry is keyed to its current stamp — all
        :meth:`_resolve` asks of a fanin before merging over it."""
        self._fit()
        return self._fresh(var)

    # ------------------------------------------------------------------
    # Planning and install (the batch hand-off)

    def _stage_input(self, fv: int) -> Optional[bool]:
        """Fanin ``fv``'s cut set as an enum-stage merge input (fitted
        table): True when **stable for the whole stage** — a stamp-fresh
        entry with every cut alive (never recomputed mid-stage), or a
        non-AND (its trivial entry made here if missing).  None: it
        needs a merge first (missing or stamp-stale).  False:
        order-dependent — stamp-fresh with dead cuts, maybe a worklist
        root re-merged before its reader runs."""
        if self._fresh(fv):
            return self._live(fv)
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
        self._fit()
        aig = self.aig
        roots = np.asarray(roots, dtype=np.int64).reshape(-1)
        rl, n = roots.tolist(), roots.size
        # Fanin literals, -1 for a non-AND root: its fanins probe slot
        # -1, the table's slack (no entry, so neither fresh nor live;
        # every flag read there is masked by the root's ``cand``).
        lits = np.fromiter(chain(map(aig._fanin0.__getitem__, rl),
                                 map(aig._fanin1.__getitem__, rl)),
                           np.int64, 2 * n)
        probe = np.concatenate([roots, lits >> 1])
        lits = lits.reshape(2, n)
        kinds = np.fromiter(map(aig._kind.__getitem__, probe.tolist()),
                            np.int64, 3 * n)
        live, fresh, _ = self._fresh_live(probe)
        is_and = kinds == KIND_AND
        cand = is_and[:n] & ~live[:n]
        cold = ~(fresh[n:] | is_and[n:])  # a non-AND fanin without an entry
        # A live entry is fresh: the stable inputs are the live and the
        # cold ones (their trivial entry made here).
        stable = live[n:] | cold
        if cold.any():
            cold &= np.concatenate([cand, cand])
            self._install_trivial(sorted(set(probe[n:].compress(cold).tolist())))
        both = stable[:n] & stable[n:]
        pick = (cand & both).nonzero()[0]
        simple = roots.take(pick)
        n_simple = len(pick)
        walk = cand & ~both
        if not walk.any():
            plan = EnumPlan(simple, *lits.take(pick, axis=1))
        else:
            index = dict(zip(simple.tolist(), range(n_simple)))
            walked: List[tuple] = []  # (var, lit0, lit1, src0, src1, wave)
            for root in roots.compress(walk).tolist():
                self._walk(root, index, walked, n_simple)
            waves: List[list] = [list(range(n_simple))]
            for t, row in enumerate(walked, n_simple):
                if row[5] == len(waves):  # a wave first shows after the one below
                    waves.append([])
                waves[row[5]].append(t)
            rows = np.array(walked, dtype=np.int64).reshape(-1, 6).T
            src = np.full((2, n_simple + len(walked)), -1, dtype=np.int64)
            src[:, n_simple:] = rows[3:5]
            plan = EnumPlan(np.concatenate([simple, rows[0]]),
                            *np.concatenate([lits.take(pick, axis=1), rows[1:3]],
                                            axis=1),
                            *src, [np.array(w, dtype=np.int64) for w in waves],
                            n_simple, index)
        plan.per_root = n - int(np.count_nonzero(kinds[:n] == KIND_DEAD)) - n_simple
        self.per_root_resolves += plan.per_root
        return plan

    def _walk(self, root: int, index, walked, n_simple: int) -> None:
        """Plan ``root``'s cold closure (:meth:`plan_closures`):
        post-order, pruned at planned vars, non-ANDs and cache answers."""
        aig = self.aig
        kind, fanin0, fanin1 = aig._kind, aig._fanin0, aig._fanin1
        fresh, live, stage_input = self._fresh, self._live, self._stage_input
        stack = [root]
        while stack:  # iterative: a cold closure can be TFI-deep
            v = stack[-1]
            if v in index or kind[v] != KIND_AND or (fresh(v) and live(v)):
                stack.pop()  # level drift or a shared fanin; a cache answer
                continue
            lits = (fanin0[v], fanin1[v])
            wave, srcs, first, dependent = 0, [], [], False
            for lit in lits:
                fv = lit >> 1
                stable = stage_input(fv)
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
        self._fit()
        tasks = np.asarray(tasks, dtype=np.int64)
        self._write(plan.var[tasks], *plan.res[:, tasks], plan.epoch)
        self.work += int(plan.pairs[tasks].sum())

    # ------------------------------------------------------------------
    # Merging

    def _live_rows(self, var: int) -> "np.ndarray":
        """Arena row indices of ``var``'s live cuts (the trivial cut's
        row when none survive)."""
        off = self._tab.item(_OFF, var)  # fanin entries are resolved first
        rows = np.arange(off, off + self._tab.item(_CNT, var))
        if self._live(var):
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
            np.array([v]), np.array([[lit_compl(f0), lit_compl(f1)]]),
            np.concatenate([rows0, rows1]), np.array([len(rows0)]),
            np.array([len(rows1)]),
        )
        return self._arena.append(*out[:4]), int(out[4][0])

    def merge_tasks_columnar(self, plan: EnumPlan, observer=None) -> None:
        """Merge every task of ``plan``, one kernel invocation per
        dependency wave, in wave order: gather each wave's inputs' rows
        from the table and from earlier waves' results, run the kernel
        and record each task's result rows in ``plan`` — *pending*
        until :meth:`install_cuts` installs them.  A wave of more than
        :data:`_WAVE_PAIRS` pairs runs as one invocation per contiguous
        task chunk (:func:`_wave_chunks`); the rows appended are the
        same.  The compaction check and the table gather of the tasks'
        inputs are paid once per plan, not once per wave.
        This method does **not** touch :attr:`work`: the replay charges
        it at the install.  A metric-enabled ``observer`` gets
        ``enum_batch_size`` and per-phase ``enum_kernel_seconds`` per
        kernel call.
        """
        if not len(plan.var):
            return
        self._fit()
        self.compact()
        observing = observer is not None and observer.enabled
        # Every input's ``(off, cnt)`` as the fanin's own entry,
        # ``[row, side, task]``; from wave 1 on, an input another task
        # merges reads that task's result instead.
        own = self._tab[_OFF:_CNT + 1].take(plan.lit >> 1, axis=1)
        comp = (plan.lit & 1).T
        arena = self._arena
        for wave, tasks in enumerate(plan.waves):
            inputs = own.take(tasks, axis=2)
            if wave:
                src = plan.src.take(tasks, axis=1)
                inputs = np.where(src >= 0, plan.res.take(src, axis=1), inputs)
            offs, cnts = inputs
            pairs = cnts[0] * cnts[1]
            plan.pairs[tasks] = pairs
            roots, comps = plan.var.take(tasks), comp.take(tasks, axis=0)
            ends = pairs.cumsum()
            chunks = (_WHOLE_WAVE if ends[-1] <= _WAVE_PAIRS
                      else _wave_chunks(ends - pairs))
            for part in chunks:
                sub = cnts[:, part]
                *block, counts, union_s, filter_s = self._columnar_core(
                    roots[part], comps[part],
                    _ranges(offs[:, part].reshape(-1), sub.reshape(-1)), *sub)
                if observing:
                    observer.observe("enum_batch_size", float(pairs[part].sum()))
                    observer.observe("enum_kernel_seconds", union_s, phase="union")
                    observer.observe("enum_kernel_seconds", filter_s, phase="filter")
                ends = counts.cumsum()
                part = tasks[part]
                plan.res[:, part] = ends - counts + arena.append(*block), counts
        plan.epoch = self.aig._stamp_counter
        self.vec_pairs += int(plan.pairs.sum())

    def compact(self) -> None:
        """Reclaim arena rows no stamp-fresh entry references (re-merged,
        never installed, scratch, and the rows of stale and dead vars'
        entries, which are dropped) once they outnumber the live ones.
        Called when no merged result is pending — at a plan's merge,
        before its first wave — so every row worth keeping is an
        entry's."""
        arena = self._arena
        if arena.used < self._compact_at:
            return
        tab, size = self._tab, self.aig.size
        fresh = tab[_STAMP, :size] == self.aig._stamp[:size]
        tab[:, (~fresh).nonzero()[0]] = _NO_ENTRY
        held = fresh.nonzero()[0]
        offs = tab[_OFF].take(held)
        uniq, first = np.unique(offs, return_index=True)
        uniq_cnts = tab[_CNT].take(held).take(first)
        if 2 * int(uniq_cnts.sum()) < arena.used:
            moved = arena.compact(uniq, uniq_cnts)
            tab[_OFF, held] = moved.take(uniq.searchsorted(offs))
            self._memo.clear()
        self._compact_at = max(8 * _MIN_ARENA_ROWS, 2 * arena.used)

    def _columnar_core(self, roots, comp, rows, n0s, n1s):
        """The batch merge kernel shared by every columnar entry point
        (DESIGN.md "cut-merge kernel" has the soundness arguments).

        Task ``t`` merges ``n0s[t]`` arena rows (fanin 0) with
        ``n1s[t]`` rows (fanin 1) for AND node ``roots[t]`` with fanin
        complements ``comp[t]``; ``rows`` lists every task's fanin-0
        rows, then every task's fanin-1 rows.  Returns the result block
        columns ``(leaves, tt, stamps, sign)`` — each task's rows
        contiguous, sorted by ``(-size, leaves)``, cut at ``max_cuts``,
        trivial cut last — the per-task row counts, and the union-/
        filter-phase seconds.  Leaf ids must stay below 2**31 - 1
        (:class:`CutError` otherwise).  Reads the graph's life column.
        """
        t_start = time.perf_counter()
        self.kernel_calls += 1
        src_leaves, src_tt, _, src_sign = self._arena.cols
        k = self.k
        n_tasks = len(roots)

        # Each source row's side-tagged leaves, gathered once: the
        # pairs index these, not the arena.  (Gathers are ``take``s and
        # masks ``compress``es throughout: numpy's fancy-index paths are
        # several times slower on these shapes.)
        n1_of0 = n1s.repeat(n0s)  # per fanin-0 row
        n_rows0 = len(n1_of0)
        side = _SIDES.repeat((n_rows0, len(rows) - n_rows0), axis=0)
        tags = tag_leaves(src_leaves.take(rows, axis=0), side)  # int64

        # Row-major pair grid per task (c0 outer, c1 inner): the nested
        # loop's insertion order, which decides duplicates below.  Pair
        # ``p`` joins rows ``grid[p]``: each fanin-0 row once per
        # fanin-1 row of its task, and those run through the task's
        # fanin-1 rows.
        ends = n1_of0.cumsum()
        n_pairs = int(ends[-1])
        grid = np.empty((n_pairs, 2), dtype=np.int64)
        grid[:, 0] = np.arange(n_rows0).repeat(n1_of0)
        first1 = (n1s.cumsum() - n1s + n_rows0).repeat(n0s)
        grid[:, 1] = (first1 - ends + n1_of0).repeat(n1_of0) + np.arange(n_pairs)
        # Sign prefilter: the union's signature has at most one bit per
        # leaf, so more than k bits means more than k leaves.
        usign = src_sign.take(rows).take(grid)
        usign = usign[:, 0] | usign[:, 1]
        keep = (np.bitwise_count(usign) <= k).nonzero()[0]
        grid, usign = grid.take(keep, axis=0), usign.take(keep)
        tags, sizes = batch_union_leaves(
            tags.take(grid, axis=0).reshape(-1, 8))
        feas = (sizes <= k).nonzero()[0]
        grid, usign, sizes = (grid.take(feas, axis=0), usign.take(feas),
                              sizes.take(feas))
        task_of = np.arange(n_tasks).repeat(n0s).take(grid[:, 0])
        tags = tags[:, :4].take(feas, axis=0)
        union = np.minimum(tags >> 2, _LEAF_LIMIT)  # the pad: _LEAF_LIMIT
        if np.count_nonzero(union < _LEAF_LIMIT) != sizes.sum():
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
        first = np.empty(len(order), dtype=bool)
        first[:1] = True
        first[1:] = (s0[1:] != s0[:-1]) | (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
        uniq = order.compress(first)
        u_task, u_size, u_sign = task_of.take(uniq), sizes.take(uniq), usign.take(uniq)
        u_leaves = union.take(uniq, axis=0)
        per_task = np.bincount(u_task, minlength=n_tasks)
        seg_ends = per_task.cumsum()
        # A set can only be dominated by a strictly smaller one of its
        # task; sizes descend within a task, so those are the rows from
        # the first smaller-size row to the task's end.
        key = u_task * 8 - u_size
        lo = key.searchsorted(key, side="right")
        n_small = seg_ends.take(u_task) - lo
        big = np.arange(len(uniq)).repeat(n_small)
        small = _ranges(lo, n_small)
        cand = ((u_sign.take(small) & ~u_sign.take(big)) == 0).nonzero()[0]
        big, small = big.take(cand), small.take(cand)
        sm_leaves = u_leaves.take(small, axis=0)
        hits = sm_leaves[:, :, None] == u_leaves.take(big, axis=0)[:, None, :]
        covered = (hits.view(np.uint32)[..., 0] != 0) | (sm_leaves == _LEAF_LIMIT)
        kept = np.ones(len(uniq), dtype=bool)
        kept[big.compress(_all_lanes(covered))] = False
        if self.max_cuts is not None:
            before = kept.cumsum() - kept
            rank = before - before.take((seg_ends - per_task).take(u_task))
            kept &= rank < self.max_cuts
        sel = uniq.compress(kept)
        sel_task = u_task.compress(kept)
        sel_leaves = u_leaves.compress(kept, axis=0)

        # Truth tables of the survivors: one byte-table gather for both
        # bytes of both sides, keyed by each byte of the side's table
        # and the mask of union positions its leaves fill — the side's
        # tag bit in each lane, the four lane bytes of a 32-bit word
        # gathered into four bits by one multiply — and the bytes OR-ed.
        member = (tags.take(sel, axis=0) & 3).astype(np.uint8).view(np.uint32)
        lanes = np.concatenate([member & _LANE_BITS, member >> 1 & _LANE_BITS],
                               axis=1) * _LANE_GATHER >> 24 & 15
        src = src_tt.take(rows).take(grid.take(sel, axis=0))  # uint16
        lifted = lift_bytes().take((src >> _BYTE_SHIFT & 255 | _BYTE_ROW) * 16 + lanes)
        sides = (lifted[0] | lifted[1]) ^ comp.take(sel_task, axis=0) * 0xFFFF
        tt = _FULL_MASKS_ARR.take(sizes.take(sel)) & sides[:, 0] & sides[:, 1]

        # Result blocks: each task's survivors, then its trivial cut; a
        # pad lane (var 0) reads the constant's life stamp.
        n_sel = len(sel)
        counts = np.bincount(sel_task, minlength=n_tasks) + 1
        n_out = n_sel + n_tasks
        pos = np.arange(n_sel) + sel_task
        triv = counts.cumsum() - 1
        out_leaves = np.zeros((n_out, 4), dtype=np.int32)
        out_leaves[pos] = np.where(sel_leaves == _LEAF_LIMIT, 0, sel_leaves)
        out_leaves[triv, 0] = roots
        out_tt = np.empty(n_out, dtype=np.uint16)
        out_tt[pos] = tt
        out_tt[triv] = 0b10
        out_stamps = self._leaf_stamps(out_leaves)
        out_sign = np.empty(n_out, dtype=np.uint64)
        out_sign[pos] = usign.take(sel)
        out_sign[triv] = np.uint64(1) << (roots.astype(np.uint64) & np.uint64(63))
        filter_seconds = time.perf_counter() - t_start
        return (out_leaves, out_tt, out_stamps, out_sign, counts,
                union_seconds, filter_seconds)
