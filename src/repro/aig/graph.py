"""Array-based And-Inverter Graph with structural hashing and ID recycling.

The graph stores nodes in parallel arrays indexed by variable id.  Edges
are literals (see :mod:`repro.aig.literals`).  Three properties matter
for the DACPara reproduction and shape everything here:

* **Structural hashing** — no two live AND nodes share the same ordered
  fanin pair, and trivial identities (``a & a``, ``a & ~a``, constants)
  never materialize as nodes.
* **ID recycling** — deleted variable ids return to a free list and are
  reused by later node creations.  The paper's Fig. 3 stale-cut scenario
  (a cut leaf is deleted and its id reused by a *different* function)
  only exists because of this, so it is load-bearing, not an
  optimization.
* **Stamps** — every structural change to a node (creation, fanin
  update, deletion) bumps its stamp.  Cut caches and DACPara's
  replacement-time validation use stamps to detect exactly the
  staleness the paper's Section 4.4 deals with.  The stamp and life
  columns are int64 arrays the cut store reads in place, and a stamp
  bump is the one change the mutation journal records (DESIGN §4k).

``replace(old_var, new_lit)`` implements the full ABC-style cascade:
fanouts are redirected, rehashed, and merged with existing nodes when
the redirect makes them structurally identical, recursively.

**Levels are maintained lazily** (DESIGN §4d).  A redirect only marks
the node *pending*; :meth:`Aig.level` settles pending nodes in
increasing stored-level order up to the level it is asked about, and
bulk readers call :meth:`Aig.settle_levels` first.  Invariant: every
non-pending AND node is stored one above the larger of its fanins'
stored levels — so once no pending node is stored at or below ``B``,
every node stored at or below ``B`` is exact, and a level-ordered
rewriter never pays for the fanout above its wavefront.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..errors import AigError
from .literals import (
    CONST_VAR,
    LIT_FALSE,
    LIT_TRUE,
    lit_compl,
    lit_not,
    lit_var,
    make_lit,
)

KIND_CONST = 0
KIND_PI = 1
KIND_AND = 2
KIND_DEAD = 3

_KIND_NAMES = {KIND_CONST: "const", KIND_PI: "pi", KIND_AND: "and", KIND_DEAD: "dead"}

_MIN_STAMP_SLOTS = 64  # a new graph's room in its stamp columns

#: A strash key packs an AND's ordered fanin pair ``(lo, hi)`` into one
#: int, ``lo << STRASH_SHIFT | hi`` (DESIGN §4k): literals stay below
#: 2**32, so the pair comes back exact.  The hot paths inline the shift.
STRASH_SHIFT = 32
_HI_MASK = (1 << STRASH_SHIFT) - 1


def strash_key(lo: int, hi: int) -> int:
    """The strash key of the ordered fanin pair ``lo < hi``."""
    return lo << STRASH_SHIFT | hi


def strash_pair(key: int) -> Tuple[int, int]:
    """The fanin pair ``(lo, hi)`` a strash key packs."""
    return key >> STRASH_SHIFT, key & _HI_MASK


class Aig:
    """A mutable And-Inverter Graph.

    Typical usage::

        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        f = aig.and_(a, lit_not(b))
        aig.add_po(f)
    """

    def __init__(self) -> None:
        # Parallel arrays indexed by variable id.  Slot 0 is the constant.
        self._kind: List[int] = [KIND_CONST]
        self._fanin0: List[int] = [-1]
        self._fanin1: List[int] = [-1]
        self._nref: List[int] = [0]
        self._level: List[int] = [0]
        # Structure and life stamps: int64 columns with room for
        # ``len(self._life)`` vars (doubled when full; slots past
        # ``size`` are unused).
        self._stamp = np.zeros(_MIN_STAMP_SLOTS, dtype=np.int64)
        self._life = np.zeros(_MIN_STAMP_SLOTS, dtype=np.int64)
        # Each var's AND fanouts, in insertion order (no duplicates: an
        # AND's two fanins are distinct vars).
        self._fanouts: List[List[int]] = [[]]

        self._strash: Dict[int, int] = {}  # strash_key(f0, f1) -> var
        self._free: List[int] = []
        self._pis: List[int] = []
        self._pos: List[int] = []
        self._po_refs: Dict[int, Set[int]] = {}

        # Lazy levels: vars whose stored level may be out of date, and a
        # min-heap of (stored level, var) over them.  A pending var's
        # level is never written, so its key stays its stored level;
        # entries of settled or deleted vars are skipped when popped.
        self._level_pending: Set[int] = set()
        self._level_heap: List[Tuple[int, int]] = []
        self.level_updates = 0  # level writes performed by settling

        self._num_ands = 0
        self._stamp_counter = 0
        self.name = ""

        # Mutation journal: every stamp bump appends its var, so entry
        # ``i`` is stamp ``_epoch_base + i + 1`` and the stamp counter
        # is the journal's epoch.  ``dirty_since(epoch)`` answers "which
        # vars changed" in O(changes), which keeps incremental snapshot
        # deltas (see :mod:`repro.aig.snapshot`) cheap on deep circuits.
        # ``_epoch_base`` is the counter at the journal's first
        # retained entry (trims and copies move it).
        self._mutation_log: List[int] = []
        self._epoch_base = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    @property
    def num_ands(self) -> int:
        """Number of live AND nodes (the paper's *area*)."""
        return self._num_ands

    @property
    def size(self) -> int:
        """Total allocated variable slots (including dead ones)."""
        return len(self._kind)

    @property
    def pis(self) -> Tuple[int, ...]:
        """Variable ids of the primary inputs, in creation order."""
        return tuple(self._pis)

    @property
    def pos(self) -> Tuple[int, ...]:
        """Primary output literals, in creation order."""
        return tuple(self._pos)

    def is_const(self, var: int) -> bool:
        return self._kind[var] == KIND_CONST

    def is_pi(self, var: int) -> bool:
        return self._kind[var] == KIND_PI

    def is_and(self, var: int) -> bool:
        return self._kind[var] == KIND_AND

    def is_dead(self, var: int) -> bool:
        return self._kind[var] == KIND_DEAD

    def kind_name(self, var: int) -> str:
        return _KIND_NAMES[self._kind[var]]

    def fanin0(self, var: int) -> int:
        """First fanin literal of an AND node."""
        if self._kind[var] != KIND_AND:
            raise AigError(f"node {var} ({self.kind_name(var)}) has no fanins")
        return self._fanin0[var]

    def fanin1(self, var: int) -> int:
        """Second fanin literal of an AND node."""
        if self._kind[var] != KIND_AND:
            raise AigError(f"node {var} ({self.kind_name(var)}) has no fanins")
        return self._fanin1[var]

    def fanins(self, var: int) -> Tuple[int, int]:
        """Both fanin literals of an AND node."""
        if self._kind[var] != KIND_AND:
            raise AigError(f"node {var} ({self.kind_name(var)}) has no fanins")
        return self._fanin0[var], self._fanin1[var]

    def fanouts(self, var: int) -> Tuple[int, ...]:
        """Variable ids of live AND nodes consuming ``var``, in the
        order they attached (by creation or by a fanin redirect)."""
        return tuple(self._fanouts[var])

    def po_fanouts(self, var: int) -> Tuple[int, ...]:
        """Indices of primary outputs directly referencing ``var``."""
        return tuple(self._po_refs.get(var, ()))

    def nref(self, var: int) -> int:
        """Fanout reference count (AND fanins plus PO references)."""
        return self._nref[var]

    def level(self, var: int) -> int:
        """Logic depth of the node (PIs and constant are level 0); exact
        at every call.  Settles up to ``var``'s stored level, re-reading
        it each round because settling may raise it."""
        heap = self._level_heap
        while heap and heap[0][0] <= self._level[var]:
            self._settle(self._level[var])
        return self._level[var]

    def stamp(self, var: int) -> int:
        """Structure stamp: changes on creation, fanin update, deletion.
        Cache freshness is keyed to this."""
        return self._stamp.item(var)

    def life_stamp(self, var: int) -> int:
        """Incarnation stamp: changes only on creation and deletion.

        Two observations of a var with equal life stamps are guaranteed
        to be the same node computing the same global function (in-place
        fanin redirects preserve functions).  A deleted-and-reused id —
        the paper's Fig. 3 hazard — shows a new life stamp.  Cut
        validity is keyed to this."""
        return self._life.item(var)

    @property
    def mutation_epoch(self) -> int:
        """The stamp counter: bumps on every stamp change (equal epochs:
        no stamp changed between); it never decreases, not even across
        :meth:`copy` or :meth:`trim_mutation_log`."""
        return self._stamp_counter

    def dirty_since(self, epoch: int) -> Optional[Set[int]]:
        """Vars whose stamp changed after ``epoch``.

        Returns ``None`` when ``epoch`` predates the retained journal
        (after a trim or a copy) — the caller must fall back to a full
        recapture.  Cost is O(changes since epoch), not O(graph)."""
        index = epoch - self._epoch_base
        if index < 0:
            return None
        if index >= len(self._mutation_log):
            return set()
        return set(self._mutation_log[index:])

    def trim_mutation_log(self, epoch: int) -> None:
        """Forget journal entries at or before ``epoch`` (callers that
        snapshot the graph never need deltas older than their base).
        ``dirty_since`` answers ``None`` for pre-trim epochs."""
        index = epoch - self._epoch_base
        if index <= 0:
            return
        index = min(index, len(self._mutation_log))
        del self._mutation_log[:index]
        self._epoch_base += index

    def max_level(self) -> int:
        """Depth of the circuit: maximum level over the PO cones."""
        self.settle_levels()
        best = 0
        for lit in self._pos:
            lev = self._level[lit_var(lit)]
            if lev > best:
                best = lev
        return best

    def ands(self) -> Iterator[int]:
        """Iterate over live AND variable ids in increasing id order."""
        kinds = self._kind
        return compress(range(len(kinds)), map(KIND_AND.__eq__, kinds))

    def nodes(self) -> Iterator[int]:
        """Iterate over all live variable ids (constant, PIs, ANDs)."""
        kinds = self._kind
        for var in range(len(kinds)):
            if kinds[var] != KIND_DEAD:
                yield var

    def po_lit(self, index: int) -> int:
        """Literal driving primary output ``index``."""
        return self._pos[index]

    def has_and(self, f0: int, f1: int) -> int:
        """Strash lookup: the literal of an existing node computing
        ``f0 & f1``, or ``-1`` when absent (after trivial-rule folding
        this can also return a constant or a fanin literal)."""
        folded = self._fold_trivial(f0, f1)
        if folded >= 0:
            return folded
        a, b = (f0, f1) if f0 < f1 else (f1, f0)
        var = self._strash.get(a << 32 | b, -1)
        return make_lit(var) if var >= 0 else -1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_pi(self) -> int:
        """Create a primary input; returns its (positive) literal."""
        var = self._alloc(KIND_PI)
        self._pis.append(var)
        return make_lit(var)

    def add_po(self, lit: int) -> int:
        """Register ``lit`` as a primary output; returns the PO index."""
        self._check_lit(lit)
        index = len(self._pos)
        self._pos.append(lit)
        var = lit_var(lit)
        self._po_refs.setdefault(var, set()).add(index)
        self._nref[var] += 1
        return index

    def set_po(self, index: int, lit: int) -> None:
        """Redirect primary output ``index`` to a new literal."""
        self._check_lit(lit)
        old = self._pos[index]
        old_var = lit_var(old)
        refs = self._po_refs.get(old_var)
        if refs is not None:
            refs.discard(index)
            if not refs:
                del self._po_refs[old_var]
        self._nref[old_var] -= 1
        self._pos[index] = lit
        var = lit_var(lit)
        self._po_refs.setdefault(var, set()).add(index)
        self._nref[var] += 1
        self._deref_delete(old_var)

    def and_(self, f0: int, f1: int) -> int:
        """AND of two literals, with trivial rules and strashing (checks,
        folding, ``_alloc`` and the stamp bump inlined, same state:
        DESIGN §4k)."""
        kind, n = self._kind, len(self._kind)
        if not (0 <= f0 and f0 >> 1 < n and kind[f0 >> 1] != KIND_DEAD
                and 0 <= f1 and f1 >> 1 < n and kind[f1 >> 1] != KIND_DEAD):
            self._check_lit(f0)
            self._check_lit(f1)
        if f0 > f1:
            f0, f1 = f1, f0
        if f0 < 2 or (f0 ^ f1) < 2:
            return self._fold_trivial(f0, f1)
        key = f0 << 32 | f1  # strash_key(f0, f1)
        var = self._strash.get(key, -1)
        if var >= 0:
            return var << 1
        v0, v1 = f0 >> 1, f1 >> 1
        level = self._level
        l0, l1 = level[v0], level[v1]
        self._stamp_counter = stamp = self._stamp_counter + 1
        if self._free:
            var = self._free.pop()
            kind[var] = KIND_AND
            self._fanin0[var] = f0
            self._fanin1[var] = f1
            self._nref[var] = 0
            level[var] = (l0 if l0 >= l1 else l1) + 1
            self._fanouts[var] = []
        else:
            var = n
            kind.append(KIND_AND)
            self._fanin0.append(f0)
            self._fanin1.append(f1)
            self._nref.append(0)
            level.append((l0 if l0 >= l1 else l1) + 1)
            self._fanouts.append([])
            if n == len(self._life):
                self._grow_stamps()
        self._stamp[var] = self._life[var] = stamp
        self._mutation_log.append(var)
        self._nref[v0] += 1
        self._nref[v1] += 1
        self._fanouts[v0].append(var)
        self._fanouts[v1].append(var)
        self._strash[key] = var
        self._num_ands += 1
        return var << 1

    # Convenience gates built from AND (kept here because they are the
    # vocabulary every generator and test uses).

    def or_(self, f0: int, f1: int) -> int:
        return self.and_(f0 ^ 1, f1 ^ 1) ^ 1

    def xor_(self, f0: int, f1: int) -> int:
        and_ = self.and_
        return and_(and_(f0, f1 ^ 1) ^ 1, and_(f0 ^ 1, f1) ^ 1) ^ 1

    def mux_(self, sel: int, t: int, e: int) -> int:
        """``sel ? t : e``."""
        and_ = self.and_
        return and_(and_(sel, t) ^ 1, and_(sel ^ 1, e) ^ 1) ^ 1

    def maj3_(self, a: int, b: int, c: int) -> int:
        """Majority of three literals."""
        return self.or_(self.and_(a, b), self.or_(self.and_(a, c), self.and_(b, c)))

    # ------------------------------------------------------------------
    # Rewriting support
    # ------------------------------------------------------------------

    def replace(self, old_var: int, new_lit: int) -> None:
        """Replace node ``old_var`` by ``new_lit`` everywhere.

        All fanouts and POs of ``old_var`` are redirected to ``new_lit``
        (respecting edge complements).  Redirected fanouts are rehashed;
        when a redirect makes a fanout structurally identical to an
        existing node (or trivially constant / a wire), that fanout is
        replaced as well, recursively.  Afterwards the now-unreferenced
        old cone is deleted.  The caller must guarantee that the node of
        ``new_lit`` is not in the transitive fanout of ``old_var``
        (rewriting builds replacements from cut leaves, so this holds by
        construction there).
        """
        self._check_lit(new_lit)
        if not self.is_and(old_var):
            raise AigError(f"can only replace AND nodes, not {self.kind_name(old_var)}")
        # Every queued replacement target carries a protection reference:
        # an earlier queued replacement's deletion cascade could otherwise
        # free a merge target before its pair is processed.
        stack = [(old_var, new_lit)]
        self._nref[new_lit >> 1] += 1
        while stack:
            ov, nl = stack.pop()
            nv = nl >> 1
            if self._kind[ov] == KIND_DEAD or nv == ov:
                if nv == ov and lit_compl(nl) and self._kind[ov] != KIND_DEAD:
                    raise AigError(f"replacing node {ov} by its own complement")
                self._nref[nv] -= 1
                self._deref_delete(nv)
                continue
            if self._kind[nv] == KIND_DEAD:
                raise AigError(
                    f"replacement literal {nl} points at a dead node "
                    "(protection reference failed)"
                )
            self._redirect(ov, nl, stack)
            self._deref_delete(ov)
            self._nref[nv] -= 1
            self._deref_delete(nv)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _fold_trivial(f0: int, f1: int) -> int:
        """Constant/identity folding for AND; -1 when a node is needed."""
        if f0 == LIT_FALSE or f1 == LIT_FALSE:
            return LIT_FALSE
        if f0 == LIT_TRUE:
            return f1
        if f1 == LIT_TRUE:
            return f0
        if f0 == f1:
            return f0
        if f0 == lit_not(f1):
            return LIT_FALSE
        return -1

    def _check_lit(self, lit: int) -> None:
        var = lit >> 1
        if lit < 0 or var >= len(self._kind):
            raise AigError(f"literal {lit} out of range")
        if self._kind[var] == KIND_DEAD:
            raise AigError(f"literal {lit} references dead node {var}")

    def _alloc(self, kind: int) -> int:
        if self._free:
            var = self._free.pop()
            self._kind[var] = kind
            self._fanin0[var] = -1
            self._fanin1[var] = -1
            self._nref[var] = 0
            self._level[var] = 0
            self._fanouts[var] = []
        else:
            var = len(self._kind)
            self._kind.append(kind)
            self._fanin0.append(-1)
            self._fanin1.append(-1)
            self._nref.append(0)
            self._level.append(0)
            self._fanouts.append([])
            if var == len(self._life):
                self._grow_stamps()
        self._bump_stamp(var)
        self._life[var] = self._stamp_counter
        return var

    def _grow_stamps(self) -> None:
        """Double the room of the stamp columns."""
        self._stamp = np.concatenate([self._stamp, np.zeros_like(self._stamp)])
        self._life = np.concatenate([self._life, np.zeros_like(self._life)])

    def _bump_stamp(self, var: int) -> None:
        """Give ``var`` a new stamp and journal it: the one place a
        node's change is recorded (:meth:`and_` inlines it)."""
        self._stamp_counter += 1
        self._stamp[var] = self._stamp_counter
        self._mutation_log.append(var)

    def _redirect(self, ov: int, nl: int, stack: List[Tuple[int, int]]) -> None:
        """Move all fanouts and PO references of ``ov`` onto ``nl``."""
        nv = lit_var(nl)
        # Primary outputs first.
        for index in list(self._po_refs.get(ov, ())):
            old = self._pos[index]
            self.set_po(index, nl ^ (old & 1))
        # AND fanouts.
        for f in list(self._fanouts[ov]):
            if self._kind[f] != KIND_AND:
                continue
            of0, of1 = self._fanin0[f], self._fanin1[f]
            nf0 = (nl ^ (of0 & 1)) if (of0 >> 1) == ov else of0
            nf1 = (nl ^ (of1 & 1)) if (of1 >> 1) == ov else of1
            folded = self._fold_trivial(nf0, nf1)
            if folded >= 0:
                # The fanout collapses to a constant or a wire; it will be
                # replaced in turn.  Leave its fanins untouched (they are
                # released when it is deleted).
                stack.append((f, folded))
                self._nref[folded >> 1] += 1  # protection reference
                continue
            a, b = (nf0, nf1) if nf0 < nf1 else (nf1, nf0)
            hit = self._strash.get(a << 32 | b, -1)
            if hit >= 0 and hit != f:
                stack.append((f, make_lit(hit)))
                self._nref[hit] += 1  # protection reference
                continue
            # In-place fanin update with rehash.
            del self._strash[self._fanin_key(f)]
            for side, (old_f, new_f) in enumerate(((of0, nf0), (of1, nf1))):
                if old_f == new_f:
                    continue
                old_v, new_v = old_f >> 1, new_f >> 1
                self._nref[old_v] -= 1
                self._fanouts[old_v].remove(f)
                self._nref[new_v] += 1
                self._fanouts[new_v].append(f)
                if side == 0:
                    self._fanin0[f] = new_f
                else:
                    self._fanin1[f] = new_f
            if self._fanin0[f] > self._fanin1[f]:
                self._fanin0[f], self._fanin1[f] = self._fanin1[f], self._fanin0[f]
            self._strash[self._fanin_key(f)] = f
            self._bump_stamp(f)
            self._update_level(f)

    def _fanin_key(self, var: int) -> int:
        return self._fanin0[var] << 32 | self._fanin1[var]

    def _update_level(self, var: int) -> None:
        """Mark ``var``'s stored level as possibly out of date."""
        if var not in self._level_pending:
            self._level_pending.add(var)
            heappush(self._level_heap, (self._level[var], var))

    def _settle(self, bound: int) -> None:
        """Recompute every pending level stored at or below ``bound``.
        Keys pop in increasing order and a changed node marks fanouts
        with strictly larger keys, so none at or below ``bound`` is left."""
        heap, pending, level = self._level_heap, self._level_pending, self._level
        while heap and heap[0][0] <= bound:
            key, v = heappop(heap)
            if v not in pending or key != level[v]:
                continue  # settled, deleted or recycled since it was pushed
            pending.remove(v)
            f0, f1 = level[self._fanin0[v] >> 1], level[self._fanin1[v] >> 1]
            new_level = (f0 if f0 >= f1 else f1) + 1
            if new_level == level[v]:
                continue
            level[v] = new_level
            self.level_updates += 1
            for f in self._fanouts[v]:
                self._update_level(f)

    def settle_levels(self) -> None:
        """Bring every stored level up to date (bulk and raw-column
        readers call this before touching ``_level``)."""
        self._settle(len(self._kind))  # no level reaches the node count

    def _deref_delete(self, var: int) -> None:
        """Delete ``var`` and, transitively, any fanin that drops to zero
        references.  Freed ids go to the free list for reuse."""
        stack = [var]
        while stack:
            v = stack.pop()
            if self._kind[v] != KIND_AND or self._nref[v] != 0:
                continue
            del self._strash[self._fanin_key(v)]
            for fl in (self._fanin0[v], self._fanin1[v]):
                fv = fl >> 1
                self._nref[fv] -= 1
                self._fanouts[fv].remove(v)
                if self._nref[fv] == 0 and self._kind[fv] == KIND_AND:
                    stack.append(fv)
            # A recycled id must neither inherit this incarnation's heap
            # key nor find itself "already pending" when re-marked.
            self._level_pending.discard(v)
            self._kind[v] = KIND_DEAD
            self._fanin0[v] = -1
            self._fanin1[v] = -1
            self._fanouts[v] = []
            self._free.append(v)
            self._num_ands -= 1
            self._bump_stamp(v)
            self._life[v] = self._stamp_counter

    def add_ref(self, var: int) -> None:
        """Take a protection reference on ``var``.

        Keeps a pending splice target alive across deletion cascades —
        the same pattern :meth:`replace` uses internally for its queued
        targets, exposed for multi-step splices (shard merging redirects
        several POs whose new drivers may share the old cones' nodes).
        Must be balanced by :meth:`drop_ref`.
        """
        if self._kind[var] == KIND_DEAD:
            raise AigError(f"cannot protect dead node {var}")
        self._nref[var] += 1

    def drop_ref(self, var: int) -> None:
        """Release a protection reference taken by :meth:`add_ref`,
        deleting the node if it is now unreferenced."""
        self._nref[var] -= 1
        self._deref_delete(var)

    def delete_if_dangling(self, var: int) -> None:
        """Delete ``var`` (and transitively-freed fanins) if it is a
        live AND node with no references — used to recycle nodes that
        were built speculatively and then abandoned."""
        if self.is_and(var) and self._nref[var] == 0:
            self._deref_delete(var)

    def cleanup_dangling(self) -> int:
        """Delete live AND nodes with zero references (not in any PO
        cone).  Returns the number of nodes removed."""
        removed = 0
        for var in list(self.ands()):
            if self._kind[var] == KIND_AND and self._nref[var] == 0:
                before = self._num_ands
                self._deref_delete(var)
                removed += before - self._num_ands
        return removed

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def copy(self) -> "Aig":
        """Deep structural copy (compacts away dead slots).

        The copy's stamp counter starts at the source's, and its
        journal starts after the copying: a snapshot delta keyed to a
        pre-copy epoch can never be mistaken for fresh (``dirty_since``
        answers ``None``, forcing the safe full recapture) even though
        copying renumbers every node."""
        other = Aig()
        other.name = self.name
        other._stamp_counter = other._epoch_base = self._stamp_counter
        self.copy_into(other)
        other.trim_mutation_log(other.mutation_epoch)
        return other

    def copy_into(self, other: "Aig") -> Dict[int, int]:
        """Append a copy of this AIG into ``other`` with fresh PIs/POs.

        Returns the old-var -> new-literal map.  This is the engine of
        the ABC ``double`` command (disjoint duplication).
        """
        mapping: Dict[int, int] = {CONST_VAR: LIT_FALSE}
        for pi in self._pis:
            mapping[pi] = other.add_pi()
        for var in self.topo_ands():
            f0, f1 = self._fanin0[var], self._fanin1[var]
            m0 = mapping[f0 >> 1] ^ (f0 & 1)
            m1 = mapping[f1 >> 1] ^ (f1 & 1)
            mapping[var] = other.and_(m0, m1)
        for lit in self._pos:
            other.add_po(mapping[lit >> 1] ^ (lit & 1))
        return mapping

    def topo_ands(self) -> List[int]:
        """Live AND nodes in a valid topological order (by level, then id:
        the sort is stable over increasing ids)."""
        self.settle_levels()
        return sorted(self.ands(), key=self._level.__getitem__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Aig(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"ands={self.num_ands}, depth={self.max_level()})"
        )
