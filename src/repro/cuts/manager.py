"""K-feasible cut enumeration with a stamp-validated, column-resident cache.

This is the paper's *Cut Manager*.  Cut sets are computed bottom-up by
merging fanin cut sets (the classic cut enumeration of Mishchenko et
al.) and cached per node.  A cache entry is keyed to the node's stamp,
so restructured or reused nodes are transparently recomputed; stale
fanin *cuts* (cuts whose own leaves have died) are filtered out at
merge time, which keeps the inductive validity invariant of
:mod:`repro.cuts.cut` intact.

Cut sets live as **column blocks** in one growable arena per manager
(sentinel-padded leaf rows, truth tables, leaf stamps, 64-bit signs;
a :class:`CutBlock` is a var's ``(stamp, offset, count)``).  The merge
kernel reads fanin rows from the arena and appends result blocks to
it, liveness is a vector compare against a life/kind mirror of the
graph, and the evaluation engine reads the columns directly.
:class:`~repro.cuts.cut.Cut` objects are materialized lazily, only at
API edges: :meth:`CutManager.cuts` and the winning ``Candidate.cut``
(the per-pair merge that builds every ``Cut`` is the reference in
``tests/reference.py``, a subclass overriding :meth:`CutManager.
_merge_node`).  Rows also are what crosses the process boundary
(:meth:`CutManager.export_tasks` / :meth:`CutManager.merge_exported` /
:meth:`CutManager.import_blocks`), by value and never as offsets.
DESIGN.md "cut-merge kernel" has the soundness arguments and the
ownership rules.

The manager also counts merge work (``work`` attribute): the simulated
parallel executor charges activities by this measure, which is what
makes the reproduced speedups data-driven rather than hand-tuned.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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
)
from .cut import Cut, cut_is_stamp_alive, trivial_cut

DEFAULT_MAX_CUTS = 12

# Masks indexed by cut width; merge never recomputes full_mask().
_FULL_MASKS_ARR = np.array([full_mask(n) for n in range(5)], dtype=np.int64)

# ``leaf & _ID_MASK`` maps the sentinel pad to var 0 (the constant node,
# which never dies), so padded rows index the life/kind mirror safely;
# pad stamp lanes hold the constant's life stamp and always compare equal.
_ID_MASK = CUT_LEAF_SENTINEL - 1
_LANE_BITS = np.array([1, 2, 4, 8], dtype=np.int64)
_MIN_ARENA_ROWS = 1024


def _ranges(offs: "np.ndarray", cnts: "np.ndarray") -> "np.ndarray":
    """Concatenated ``arange(off, off + cnt)`` runs."""
    ends = np.cumsum(cnts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(offs - (ends - cnts), cnts) + np.arange(total)


def _block_rows(blocks) -> Tuple["np.ndarray", "np.ndarray"]:
    """Arena row indices of (staged) ``blocks``, concatenated, and the
    per-block counts."""
    cnts = np.array([b.cnt for b in blocks], dtype=np.int64)
    return _ranges(np.array([b.off for b in blocks], dtype=np.int64), cnts), cnts


def _task_vectors(tasks):
    """``(roots, comp0, comp1)`` arrays of ``(root, f0, f1, ...)`` tasks."""
    return (np.array([t[0] for t in tasks], dtype=np.int64),
            np.array([lit_compl(t[1]) for t in tasks], dtype=bool),
            np.array([lit_compl(t[2]) for t in tasks], dtype=bool))


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


class CutBlock:
    """One var's cut set: ``cnt`` arena rows at ``off`` (``off < 0``:
    not staged yet) and/or its ``Cut`` list (``None``: not materialized
    yet), keyed to the var's ``stamp``.  ``alive_epoch`` memoizes "every
    cut alive" per graph mutation epoch.  Only the owning manager moves
    ``off`` (compaction)."""

    __slots__ = ("stamp", "off", "cnt", "cuts", "alive_epoch")

    def __init__(self, off: int, cnt: int, cuts: Optional[List[Cut]] = None,
                 stamp: Optional[int] = None):
        self.stamp = stamp
        self.off = off
        self.cnt = cnt
        self.cuts = cuts
        self.alive_epoch = None


class CutColumns(NamedTuple):
    """The eval stage's resident task table: ``counts[i]`` consecutive
    rows of the column arrays belong to ``roots[i]``."""

    roots: List[int]
    counts: List[int]
    leaves: "np.ndarray"  # (N, 4) ascending, CUT_LEAF_SENTINEL-padded
    tt: "np.ndarray"      # (N,)
    # (N, 4); None on the worker side of a fan-out, which scores from
    # ``leaves``/``tt`` alone and names its winners by index.
    stamps: Optional["np.ndarray"]

    def cut(self, i: int) -> Cut:
        """Materialize row ``i`` (the winning ``Candidate.cut``)."""
        row = self.leaves[i]
        n = int((row < CUT_LEAF_SENTINEL).sum())
        return Cut(tuple(row[:n].tolist()), int(self.tt[i]),
                   tuple(self.stamps[i, :n].tolist()))


class _Arena:
    """Append-only column store shared by all of a manager's blocks:
    ``cols`` = (leaves ``(n, 4)``, tt, leaf stamps ``(n, 4)``, sign)."""

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

    def compact(self, blocks: Sequence[CutBlock]) -> None:
        """Keep only the rows of ``blocks`` (all staged), re-offsetting
        them in place."""
        rows, _ = _block_rows(blocks)
        for col in self.cols:
            col[: len(rows)] = col[rows]
        self.used = 0
        for b in blocks:
            b.off = self.used
            self.used += b.cnt


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
        self._cache: Dict[int, CutBlock] = {}
        self._arena = _Arena()
        self._compact_at = 8 * _MIN_ARENA_ROWS
        # Life/kind mirror of the graph: life stamps as one array, dead
        # nodes reading -1 (no recorded stamp), patched through the
        # mutation journal.
        self._epoch: Optional[int] = None
        self._life = None
        self.vec_pairs = 0  # pairs merged by the kernel (observer counter)
        self.kernel_calls = 0  # kernel invocations (observer counter)

    # ------------------------------------------------------------------

    def cuts(self, var: int) -> List[Cut]:
        """Cut set of ``var`` on the current graph (cached)."""
        return self._materialize(self._resolve(var))

    def fresh_cuts(self, var: int) -> List[Cut]:
        """Cut set with stamp-dead cuts purged: if any cached cut has a
        stale leaf, the node's cuts are re-merged from the (filtered)
        fanin sets."""
        return self._materialize(self.fresh_block(var))

    def eval_harvest(self, roots) -> CutColumns:
        """The eval stage's task table: each root's (stamp-validated)
        enumerated cut set, in worklist order, gathered into one
        :class:`CutColumns` — no ``Cut`` built."""
        self.prime_liveness(roots)
        blocks = [self.fresh_block(root) for root in roots]
        self._stage(blocks)
        rows, cnts = _block_rows(blocks)
        leaves, tt, stamps, _ = self._arena.cols
        return CutColumns(list(roots), cnts.tolist(), leaves[rows], tt[rows],
                          stamps[rows])

    def invalidate(self, var: int) -> None:
        """Drop the cache entry for one node."""
        self._cache.pop(var, None)

    def invalidate_tfo(self, var: int) -> int:
        """Recursively drop cache entries of ``var`` and its transitive
        fanout — the paper's "previous enumeration results ... of all
        transitive fanouts for each deleted node will be recursively
        cleared".  Returns the number of entries dropped."""
        dropped = 0
        stack = [var]
        seen = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            if self._cache.pop(v, None) is not None:
                dropped += 1
            if not self.aig.is_dead(v):
                stack.extend(self.aig.fanouts(v))
        return dropped

    def clear(self) -> None:
        """Drop every cached cut set and the arena rows behind them."""
        self._cache.clear()
        self._arena = _Arena()

    # ------------------------------------------------------------------
    # Resolution and liveness

    def _resolve(self, var: int) -> CutBlock:
        """The stamp-fresh block of ``var``, merging bottom-up whatever
        is missing or stale (the body of :meth:`cuts`)."""
        aig = self.aig
        if aig.is_dead(var):
            raise CutError(f"cut enumeration on dead node {var}")
        self.last_computed = []
        cache = self._cache
        block = cache.get(var)
        if block is not None and block.stamp == aig.stamp(var):
            return block
        # Iterative post-order resolution (circuits are deep).
        stack = [var]
        while stack:
            v = stack[-1]
            block = cache.get(v)
            if block is not None and block.stamp == aig.stamp(v):
                stack.pop()
                continue
            if not aig.is_and(v):
                self._trivial_block(v)
                stack.pop()
                continue
            pending = False
            for fv in (lit_var(aig.fanin0(v)), lit_var(aig.fanin1(v))):
                fblock = cache.get(fv)
                if fblock is None or fblock.stamp != aig.stamp(fv):
                    stack.append(fv)
                    pending = True
            if pending:
                continue
            block = self._merge_node(v)
            block.stamp = aig.stamp(v)
            cache[v] = block
            self.last_computed.append(v)
            stack.pop()
        return cache[var]

    def fresh_block(self, var: int) -> CutBlock:
        """:meth:`fresh_cuts` at block level: no ``Cut`` is built."""
        block = self._resolve(var)
        if not self._all_alive(block):
            self.invalidate(var)
            block = self._resolve(var)
        return block

    def _trivial_block(self, var: int) -> CutBlock:
        """Cache the trivial-cut set :meth:`cuts` keeps for a non-AND node."""
        aig = self.aig
        block = CutBlock(-1, 1, [trivial_cut(aig, var)], aig.stamp(var))
        self._cache[var] = block
        return block

    def _materialize(self, block: CutBlock) -> List[Cut]:
        cuts = block.cuts
        if cuts is None:
            rows = slice(block.off, block.off + block.cnt)
            cuts = block.cuts = _build_cuts(*(c[rows] for c in self._arena.cols))
        return cuts

    def _stage(self, blocks: Sequence[CutBlock]) -> None:
        """Write object-only blocks' rows into the arena, one bulk conversion."""
        todo = list({id(b): b for b in blocks if b.off < 0}.values())
        if not todo:
            return
        cuts = [c for b in todo for c in b.cuts]
        self._sync()
        pad = (int(self._life[0]),)
        sent = (CUT_LEAF_SENTINEL,)
        leaves = np.array(
            [c.leaves + sent * (4 - len(c.leaves)) for c in cuts], dtype=np.int64
        ).reshape(-1, 4)  # (0, 4) when every set is empty
        stamps = np.array(
            [c.leaf_stamps + pad * (4 - len(c.leaves)) for c in cuts],
            dtype=np.int64,
        ).reshape(-1, 4)
        tt = np.array([c.tt for c in cuts], dtype=np.int64)
        off = self._arena.append(leaves, tt, stamps, batch_cut_signs(leaves))
        for b in todo:
            b.off = off
            off += b.cnt

    def _sync(self) -> None:
        """Bring the life mirror up to the graph's mutation epoch, and
        drop the cache entries of vars that died (never resolved again;
        a recycled id mismatches on stamp)."""
        aig = self.aig
        epoch = getattr(aig, "mutation_epoch", 0)  # snapshots never mutate
        if epoch == self._epoch:
            return
        life, kind = aig._life, aig._kind
        dirty = None
        if self._epoch is not None:
            dirty = aig.dirty_since(self._epoch)
        if dirty is None or 4 * len(dirty) > len(life):
            self._life = np.where(
                np.asarray(kind) == KIND_DEAD, -1, np.asarray(life, dtype=np.int64))
            idx = list(self._cache)
        else:
            grow = len(life) - len(self._life)
            if grow > 0:
                self._life = np.concatenate(
                    [self._life, np.zeros(grow + len(life) // 4, dtype=np.int64)])
            idx = list(dirty)
            self._life[idx] = [-1 if kind[v] == KIND_DEAD else life[v] for v in idx]
        for v in idx:
            if kind[v] == KIND_DEAD:
                self._cache.pop(v, None)
        self._epoch = epoch

    def _rows_alive(self, rows) -> "np.ndarray":
        """Per-row ``cut_is_stamp_alive`` (index array or slice; synced mirror)."""
        leaves, _, stamps, _ = self._arena.cols
        return (self._life[leaves[rows] & _ID_MASK] == stamps[rows]).all(axis=1)

    def _all_alive(self, block: CutBlock) -> bool:
        self._sync()
        if block.alive_epoch != self._epoch:
            if block.off < 0:  # object-only: not worth staging for this
                alive = all(cut_is_stamp_alive(self.aig, c) for c in block.cuts)
            else:
                alive = self._rows_alive(slice(block.off, block.off + block.cnt)).all()
            if not alive:
                return False
            block.alive_epoch = self._epoch
        return True

    def prime_liveness(self, vars, fanins: bool = False) -> None:
        """Verify the arena-resident sets of ``vars`` (and, with
        ``fanins``, of their fanin nodes) alive in one vector compare,
        so the per-root checks that follow on the same graph state
        answer from the per-block memo."""
        self._sync()
        epoch, aig, cache = self._epoch, self.aig, self._cache
        probe = list(vars)
        if fanins:
            probe += [lit_var(fl) for v in probe if aig.is_and(v)
                      for fl in (aig.fanin0(v), aig.fanin1(v))]
        blocks = [b for b in {v: cache.get(v) for v in probe}.values()
                  if b is not None and b.off >= 0 and b.alive_epoch != epoch]
        if not blocks:
            return
        rows, cnts = _block_rows(blocks)
        owner = np.repeat(np.arange(len(blocks)), cnts)
        dead = np.bincount(owner[~self._rows_alive(rows)],
                           minlength=len(blocks))
        for block, n_dead in zip(blocks, dead.tolist()):
            if not n_dead:
                block.alive_epoch = epoch

    def has_fresh_live_cuts(self, var: int) -> bool:
        """True when ``var``'s entry is stamp-fresh and every cached cut is
        alive: :meth:`fresh_cuts` then answers from cache, no merge work."""
        block = self._cache.get(var)
        return (block is not None and block.stamp == self.aig.stamp(var)
                and self._all_alive(block))

    # ------------------------------------------------------------------
    # Harvest / install (the batch and fan-out hand-off)

    def _stage_input(self, fv: int):
        """Fanin ``fv``'s cut set as an enum-stage merge input: its
        block when **stable for the whole stage** — a stamp-fresh entry
        with every cut alive (never recomputed mid-stage), or a non-AND
        (always the trivial cut).  None: it needs a merge first (missing
        or stamp-stale).  False: order-dependent — stamp-fresh with dead
        cuts, maybe a worklist root re-merged before its reader runs."""
        block = self._cache.get(fv)
        if block is not None and block.stamp == self.aig.stamp(fv):
            return block if self._all_alive(block) else False
        return None if self.aig.is_and(fv) else self._trivial_block(fv)

    def enum_harvest(self, root: int):
        """Inputs for a batched or worker-side merge of ``root``:
        ``(f0, f1, block0, block1)`` — the fanin literals and their
        cached :class:`CutBlock` s — or None.

        A root is eligible when its merge is a *pure function of
        shippable state*: an AND node whose own entry needs
        (re)computing and whose fanin sets are both stable
        (:meth:`_stage_input`).  None for a root with a fresh live
        entry (a one-unit cache answer) and for one with any other
        fanin — the closure of length one of :meth:`plan_closures`,
        which plans the rest.
        """
        aig = self.aig
        if not aig.is_and(root) or self.has_fresh_live_cuts(root):
            return None
        f0, f1 = aig.fanin0(root), aig.fanin1(root)
        block0 = self._stage_input(lit_var(f0))
        block1 = block0 and self._stage_input(lit_var(f1))
        return (f0, f1, block0, block1) if block1 else None

    def has_fresh_entry(self, var: int) -> bool:
        """True when ``var``'s entry is keyed to its current stamp — all
        :meth:`_resolve` asks of a fanin before merging over it."""
        block = self._cache.get(var)
        return block is not None and block.stamp == self.aig.stamp(var)

    def plan_closures(self, roots):
        """The merges an enum stage over live ``roots`` needs, each
        exactly once, as ``(plan, waves)``: the roots without a fresh
        live entry and, below them, every fanin whose entry is missing
        or stamp-stale — what :meth:`_resolve` would merge.  ``plan[v]
        = (wave, f0, f1, block0, block1)``, a block None standing for a
        planned fanin's result; ``waves[w]`` lists the vars merging over
        stable blocks and results of waves below ``w``.  ``plan[v] is
        None``: order-dependent (a fanin is, or a planned fanin's plan
        is) and left to :meth:`fresh_block`."""
        aig = self.aig
        plan: Dict[int, Optional[tuple]] = {}
        waves: List[List[int]] = [[]]
        for root in roots:
            stack = [root]
            while stack:  # iterative: a cold closure can be TFI-deep
                v = stack[-1]
                if v in plan or not aig.is_and(v) or self.has_fresh_live_cuts(v):
                    stack.pop()  # level drift or a shared fanin; a cache answer
                    continue
                f0, f1 = aig.fanin0(v), aig.fanin1(v)
                wave, sets, first = 0, [], []
                for fv in (lit_var(f0), lit_var(f1)):
                    block = self._stage_input(fv)
                    if block is None and fv not in plan:
                        first.append(fv)
                    elif block is None and plan[fv] is None:
                        block = False
                    elif block is None:
                        wave = max(wave, plan[fv][0] + 1)
                    sets.append(block)
                if False in sets:
                    plan[v] = None
                elif first:
                    stack.extend(first)
                    continue
                else:
                    plan[v] = (wave, f0, f1, *sets)
                    if wave == len(waves):
                        waves.append([])
                    waves[wave].append(v)
                stack.pop()
        return plan, waves

    def install_cuts(self, root: int, block: CutBlock, work: int = 0) -> None:
        """Install a batch- or worker-computed cut set (a
        :class:`CutBlock` from :meth:`merge_tasks_columnar` or
        :meth:`import_blocks`) for AND node ``root``, keyed to its
        current stamp — with the trivial entries its harvest cached for
        non-AND fanins, exactly what :meth:`cuts` would have cached.
        ``work`` (the merge-pair count) is charged to :attr:`work`,
        byte-identical with an in-parent merge."""
        block.stamp = self.aig.stamp(root)
        self._cache[root] = block
        self.work += work

    # ------------------------------------------------------------------
    # Merging

    def _live_rows(self, var: int) -> "np.ndarray":
        """Arena row indices of ``var``'s live cuts (the trivial cut's
        row when none survive)."""
        block = self._cache[var]  # fanin entries are resolved first
        self._stage([block])
        if not self._all_alive(block):
            alive = self._rows_alive(slice(block.off, block.off + block.cnt))
            if alive.any():
                return block.off + np.flatnonzero(alive)
            block = CutBlock(-1, 1, [trivial_cut(self.aig, var)])
            self._stage([block])
        return np.arange(block.off, block.off + block.cnt)

    def _merge_node(self, v: int) -> CutBlock:
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
        return CutBlock(self._arena.append(*out[:4]), int(out[4][0]))

    def merge_tasks_columnar(self, tasks, observer=None, pending=()):
        """Merge a whole wave of planned nodes in one kernel invocation.

        ``tasks`` are ``(root,) + enum_harvest(root)`` tuples, or a
        later closure wave's, whose fanin blocks may be earlier results.
        Returns ``(root, block, pairs)`` rows in task order — ``block``
        a :class:`CutBlock` already in the arena, *pending* until
        :meth:`install_cuts` caches it: pass the ``pending`` blocks of
        earlier calls back, or the compaction here drops their rows.
        ``pairs`` is the merge work the caller charges via
        :meth:`install_cuts`: this method does **not** touch
        :attr:`work`, exactly like a pool worker's merge.  A
        metric-enabled ``observer`` gets ``enum_batch_size`` and
        per-phase ``enum_kernel_seconds``.
        """
        if not tasks:
            return []
        sets = [t[3] for t in tasks] + [t[4] for t in tasks]
        self.compact(itertools.chain(sets, pending))
        self._stage(sets)
        rows0, n0s = _block_rows(sets[:len(tasks)])
        rows1, n1s = _block_rows(sets[len(tasks):])
        roots, comp0, comp1 = _task_vectors(tasks)
        out = self._merge_rows(roots, comp0, comp1, rows0, n0s, rows1, n1s,
                               observer)
        blocks = self.import_blocks(*out)
        return [(t[0], b, p) for t, b, p in zip(tasks, blocks, (n0s * n1s).tolist())]

    # ------------------------------------------------------------------
    # Rows across the process boundary (by value; offsets never ship)

    def export_tasks(self, tasks):
        """The by-value form of harvested ``tasks`` for a pool worker:
        the task vectors ``(roots, comp0, comp1, off0, n0s, off1, n1s)``
        and the de-duplicated arena rows ``(leaves, tt, stamps, sign)``
        the fanin blocks reference, ``off*`` indexing into those rows."""
        sets = [t[3] for t in tasks] + [t[4] for t in tasks]
        uniq = list({id(b): b for b in sets}.values())
        self._stage(uniq)
        rows, uniq_cnts = _block_rows(uniq)
        local = dict(zip(map(id, uniq),
                         (np.cumsum(uniq_cnts) - uniq_cnts).tolist()))
        offs = np.array([local[id(b)] for b in sets], dtype=np.int64)
        cnts = np.array([b.cnt for b in sets], dtype=np.int64)
        n = len(tasks)
        return (_task_vectors(tasks) + (offs[:n], cnts[:n], offs[n:], cnts[n:]),
                tuple(col[rows] for col in self._arena.cols))

    def merge_exported(self, roots, comp0, comp1, off0, n0s, off1, n1s, rows,
                       observer=None):
        """Worker side of :meth:`export_tasks`: load ``rows`` into this
        (throwaway) manager's arena, run the kernel, and return the
        result by value — ``(roots, counts, leaves, tt, stamps, sign)``,
        the echo of ``roots`` first so the parent can check alignment."""
        base = self._arena.append(*rows)
        out = self._merge_rows(
            roots, comp0, comp1, _ranges(base + off0, n0s), n0s,
            _ranges(base + off1, n1s), n1s, observer)
        return (roots,) + out

    def import_blocks(self, counts, leaves, tt, stamps, sign) -> List[CutBlock]:
        """Append result rows (this manager's kernel output, or a
        worker's) to the arena in one copy; one :class:`CutBlock` per
        entry of ``counts``, ready for :meth:`install_cuts`."""
        base = self._arena.append(leaves, tt, stamps, sign)
        ends = np.cumsum(counts)
        return [CutBlock(base + end - cnt, cnt)
                for end, cnt in zip(ends.tolist(), counts.tolist())]

    def _merge_rows(self, roots, comp0, comp1, rows0, n0s, rows1, n1s, observer):
        """One kernel invocation plus its bookkeeping; returns
        ``(counts, leaves, tt, stamps, sign)``."""
        total_pairs = int((n0s * n1s).sum())
        self.vec_pairs += total_pairs
        out = self._columnar_core(roots, comp0, comp1, rows0, n0s, rows1, n1s)
        if observer is not None and observer.enabled:
            observer.observe("enum_batch_size", float(total_pairs))
            observer.observe("enum_kernel_seconds", out[5], phase="union")
            observer.observe("enum_kernel_seconds", out[6], phase="filter")
        return (out[4],) + out[:4]

    def compact(self, extra: Iterable[CutBlock] = ()) -> None:
        """Reclaim arena rows no block references (re-merged, never
        installed, staging-only) once they outnumber the live ones.
        Call only between batch merges / fan-outs, when the only blocks
        outside the cache are ``extra``: the task inputs and the pending
        results of earlier waves (read only when a compaction is due)."""
        arena = self._arena
        if arena.used < self._compact_at:
            return
        blocks = list(self._cache.values()) + list(extra)
        blocks = list({id(b): b for b in blocks if b.off >= 0}.values())
        if 2 * sum(b.cnt for b in blocks) < arena.used:
            arena.compact(blocks)
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
        the union-/filter-phase seconds.
        """
        t_start = time.perf_counter()
        self.kernel_calls += 1
        self._sync()
        src_leaves, src_tt, _, src_sign = self._arena.cols
        k = self.k
        n_tasks = len(roots)

        # Row-major pair grid per task (c0 outer, c1 inner): the nested
        # loop's insertion order, which decides duplicates below.
        ppt = n0s * n1s
        pair_ends = np.cumsum(ppt)
        task_of = np.repeat(np.arange(n_tasks), ppt)
        r = np.arange(int(pair_ends[-1])) - (pair_ends - ppt)[task_of]
        n1p = n1s[task_of]
        i0 = rows0[(np.cumsum(n0s) - n0s)[task_of] + r // n1p]
        i1 = rows1[(np.cumsum(n1s) - n1s)[task_of] + r % n1p]
        # Sign prefilter: the union's signature has at most one bit per
        # leaf, so more than k bits means more than k leaves.
        usign = src_sign[i0] | src_sign[i1]
        keep = np.flatnonzero(np.bitwise_count(usign) <= k)
        i0, i1, task_of, usign = i0[keep], i1[keep], task_of[keep], usign[keep]
        union, sizes = batch_union_leaves(src_leaves[i0], src_leaves[i1])
        feas = np.flatnonzero(sizes <= k)
        i0, i1, task_of, usign = i0[feas], i1[feas], task_of[feas], usign[feas]
        sizes = sizes[feas]
        union = union[feas, :4]
        union_seconds = time.perf_counter() - t_start

        # Dominance filter, closed form of the insertion-order one: keep
        # the ⊆-minimal leaf sets, first occurrence of each.  One stable
        # sort gives the output order and makes duplicates adjacent.
        t_start = time.perf_counter()
        order = np.lexsort((union[:, 3], union[:, 2], union[:, 1],
                            union[:, 0], -sizes, task_of))
        s_task, s_leaves = task_of[order], union[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (s_task[1:] != s_task[:-1]) | (
            s_leaves[1:] != s_leaves[:-1]).any(axis=1)
        uniq = order[first]
        u_task, u_leaves = s_task[first], s_leaves[first]
        u_size, u_sign = sizes[uniq], usign[uniq]
        per_task = np.bincount(u_task, minlength=n_tasks)
        seg_ends = np.cumsum(per_task)
        # A set can only be dominated by a strictly smaller one of its
        # task; sizes descend within a task, so those are the rows from
        # the first smaller-size row to the task's end.
        key = u_task * 8 - u_size
        lo = np.searchsorted(key, key, side="right")
        n_small = seg_ends[u_task] - lo
        big = np.repeat(np.arange(len(uniq)), n_small)
        small = _ranges(lo, n_small)
        cand = np.flatnonzero((u_sign[small] & ~u_sign[big]) == 0)
        big, small = big[cand], small[cand]
        sm_leaves = u_leaves[small]
        subset = (
            (sm_leaves[:, :, None] == u_leaves[big][:, None, :]).any(axis=2)
            | (sm_leaves == CUT_LEAF_SENTINEL)
        ).all(axis=1)
        kept = np.ones(len(uniq), dtype=bool)
        kept[big[subset]] = False
        if self.max_cuts is not None:
            before = np.cumsum(kept) - kept
            rank = before - before[(seg_ends - per_task)[u_task]]
            kept &= rank < self.max_cuts
        sel = uniq[kept]
        sel_task = u_task[kept]
        sel_leaves = u_leaves[kept]

        # Truth tables of the survivors: one LUT gather per side, keyed
        # by the table and the mask of union positions its leaves fill.
        valid = sel_leaves < CUT_LEAF_SENTINEL
        lut = lift_lut().reshape(-1)
        masks = _FULL_MASKS_ARR[sizes[sel]]
        tt = masks
        for idx, comp in ((i0[sel], comp0), (i1[sel], comp1)):
            member = (
                sel_leaves[:, :, None] == src_leaves[idx][:, None, :]
            ).any(axis=2) & valid
            side = lut[src_tt[idx] * 16 + member @ _LANE_BITS].astype(np.int64)
            tt = tt & np.where(comp[sel_task], side ^ 0xFFFF, side)

        # Result blocks: each task's survivors, then its trivial cut.
        life = self._life
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
        out_sign[pos] = usign[sel]
        out_sign[triv] = np.uint64(1) << (roots.astype(np.uint64) & np.uint64(63))
        filter_seconds = time.perf_counter() - t_start
        return (out_leaves, out_tt, out_stamps, out_sign, counts,
                union_seconds, filter_seconds)
