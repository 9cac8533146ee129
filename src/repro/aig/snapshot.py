"""Immutable array-based snapshot of an AIG for cross-process reads.

The lock-free evaluation stage only ever *reads* the graph: fanins,
reference counts, levels, stamps and strash probes.  ``AigSnapshot``
captures exactly that read surface into flat numpy arrays — one
``O(size)`` copy on the parent, a compact pickle over the process
boundary, and zero shared mutable state on the workers (the paper's
"thread-local copies" discipline taken across address spaces).

The class mirrors the read API of :class:`~repro.aig.graph.Aig`
(``is_and``/``is_dead``/``fanins``/``nref``/``level``/``stamp``/
``life_stamp``/``has_and``/``size``…), so the evaluation machinery in
:mod:`repro.rewrite.base` and the :class:`~repro.cuts.manager.
CutManager` run against it unchanged.  Mutating methods simply do not
exist; an attempt to mutate is an :class:`AttributeError` by design.

The strash table is *not* pickled: it is rebuilt lazily from the fanin
arrays on first :meth:`has_and` probe in the consuming process, which
keeps the payload to a handful of primitive arrays.

**Deltas** keep repeated hand-offs cheap: every snapshot records the
:attr:`Aig.mutation_epoch` it was captured at.  :func:`capture_delta`
(or the bound :meth:`AigSnapshot.delta_since`) packages only the slots
touched since that epoch; :meth:`AigSnapshot.apply_delta` patches a
base snapshot into the newer one without re-shipping the whole graph.
The base itself crosses the process boundary one way only — as its
pickle (:mod:`repro.galois.shipper`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import AigError
from .graph import KIND_AND, KIND_CONST, KIND_DEAD, KIND_PI, Aig, _KIND_NAMES

#: (attribute name, numpy dtype) of every per-node array in a snapshot,
#: in pickling/shipping order.  Deltas and :meth:`AigSnapshot.columns`
#: both iterate this table so the representations cannot drift.
_NODE_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("_kind", "int8"),
    ("_fanin0", "int64"),
    ("_fanin1", "int64"),
    ("_nref", "int64"),
    ("_level", "int64"),
    ("_stamp", "int64"),
    ("_life", "int64"),
)


class AigSnapshot:
    """A frozen, picklable view of one AIG generation."""

    __slots__ = (
        "_kind", "_fanin0", "_fanin1", "_nref", "_level", "_stamp",
        "_life", "_pis", "_pos", "_num_ands", "generation", "name",
        "epoch", "_strash", "_columns",
    )

    def __init__(
        self,
        kind: np.ndarray,
        fanin0: np.ndarray,
        fanin1: np.ndarray,
        nref: np.ndarray,
        level: np.ndarray,
        stamp: np.ndarray,
        life: np.ndarray,
        pis: Tuple[int, ...],
        pos: Tuple[int, ...],
        num_ands: int,
        generation: int,
        name: str,
        epoch: int = 0,
    ):
        self._kind = kind
        self._fanin0 = fanin0
        self._fanin1 = fanin1
        self._nref = nref
        self._level = level
        self._stamp = stamp
        self._life = life
        self._pis = pis
        self._pos = pos
        self._num_ands = num_ands
        self.generation = generation
        self.name = name
        self.epoch = epoch
        self._strash: Optional[Dict[Tuple[int, int], int]] = None
        self._columns: Optional[Tuple[list, ...]] = None

    @classmethod
    def capture(cls, aig: Aig) -> "AigSnapshot":
        """Copy the read state of ``aig`` (levels settled) into flat arrays."""
        aig.settle_levels()
        return cls(
            kind=np.array(aig._kind, dtype=np.int8),
            fanin0=np.array(aig._fanin0, dtype=np.int64),
            fanin1=np.array(aig._fanin1, dtype=np.int64),
            nref=np.array(aig._nref, dtype=np.int64),
            level=np.array(aig._level, dtype=np.int64),
            stamp=np.array(aig._stamp, dtype=np.int64),
            life=np.array(aig._life, dtype=np.int64),
            pis=aig.pis,
            pos=aig.pos,
            num_ands=aig.num_ands,
            generation=aig.generation,
            name=aig.name,
            epoch=aig.mutation_epoch,
        )

    # -- pickling ------------------------------------------------------

    def __getstate__(self):
        return (
            self._kind, self._fanin0, self._fanin1, self._nref, self._level,
            self._stamp, self._life, self._pis, self._pos, self._num_ands,
            self.generation, self.name, self.epoch,
        )

    def __setstate__(self, state) -> None:
        (
            self._kind, self._fanin0, self._fanin1, self._nref, self._level,
            self._stamp, self._life, self._pis, self._pos, self._num_ands,
            self.generation, self.name, self.epoch,
        ) = state
        self._strash = None
        self._columns = None

    # -- deltas --------------------------------------------------------

    def delta_since(self, aig: Aig) -> Optional["SnapshotDelta"]:
        """Delta bringing this snapshot up to ``aig``'s current state.

        Returns None when ``aig`` can no longer answer for this
        snapshot's epoch (journal trimmed, or the graph is a ``copy()``
        that restarted its journal) — the caller must fall back to a
        full :meth:`capture`.
        """
        return capture_delta(aig, self.epoch)

    def apply_delta(self, delta: "SnapshotDelta") -> "AigSnapshot":
        """Return a **new** snapshot with ``delta`` patched in.

        Snapshots are immutable, so patching always copies the
        per-node arrays.
        """
        if delta.base_epoch != self.epoch:
            raise AigError(
                f"delta base epoch {delta.base_epoch} does not match "
                f"snapshot epoch {self.epoch}"
            )
        size = delta.size
        if size < self.size:
            raise AigError("snapshot slot arrays never shrink")
        idx = delta.vars
        arrays = {}
        for pos, (field, dtype) in enumerate(_NODE_FIELDS):
            base = getattr(self, field)
            out = np.zeros(size, dtype=np.dtype(dtype))
            out[: len(base)] = base
            if idx.size:
                out[idx] = delta.fields[pos]
            arrays[field.lstrip("_")] = out
        return AigSnapshot(
            pis=delta.pis,
            pos=delta.pos,
            num_ands=delta.num_ands,
            generation=delta.generation,
            name=delta.name,
            epoch=delta.epoch,
            **arrays,
        )

    # -- read API (mirrors Aig) ----------------------------------------

    @property
    def size(self) -> int:
        return len(self._kind)

    @property
    def num_ands(self) -> int:
        return self._num_ands

    @property
    def num_pis(self) -> int:
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        return len(self._pos)

    @property
    def pis(self) -> Tuple[int, ...]:
        return self._pis

    @property
    def pos(self) -> Tuple[int, ...]:
        return self._pos

    def is_const(self, var: int) -> bool:
        return self._kind[var] == KIND_CONST

    def is_pi(self, var: int) -> bool:
        return self._kind[var] == KIND_PI

    def is_and(self, var: int) -> bool:
        return self._kind[var] == KIND_AND

    def is_dead(self, var: int) -> bool:
        return self._kind[var] == KIND_DEAD

    def kind_name(self, var: int) -> str:
        return _KIND_NAMES[int(self._kind[var])]

    def fanin0(self, var: int) -> int:
        if self._kind[var] != KIND_AND:
            raise AigError(f"node {var} ({self.kind_name(var)}) has no fanins")
        return int(self._fanin0[var])

    def fanin1(self, var: int) -> int:
        if self._kind[var] != KIND_AND:
            raise AigError(f"node {var} ({self.kind_name(var)}) has no fanins")
        return int(self._fanin1[var])

    def fanins(self, var: int) -> Tuple[int, int]:
        return self.fanin0(var), self.fanin1(var)

    def nref(self, var: int) -> int:
        return int(self._nref[var])

    def level(self, var: int) -> int:
        return int(self._level[var])

    def stamp(self, var: int) -> int:
        return int(self._stamp[var])

    def life_stamp(self, var: int) -> int:
        return int(self._life[var])

    def has_and(self, f0: int, f1: int) -> int:
        """Strash probe, identical contract to :meth:`Aig.has_and`."""
        folded = Aig._fold_trivial(f0, f1)
        if folded >= 0:
            return folded
        a, b = (f0, f1) if f0 < f1 else (f1, f0)
        var = self._ensure_strash().get((a, b), -1)
        return (var << 1) if var >= 0 else -1

    def columns(self) -> Tuple[list, ...]:
        """The per-node arrays as plain Python lists, in
        :data:`_NODE_FIELDS` order (cached per snapshot).

        Scalar indexing into lists is several times faster than numpy
        scalar indexing; this is the primary store of the columnar
        evaluation engine (:mod:`repro.rewrite.columnar`), converted
        once per generation and shared across every chunk a worker
        scores against this snapshot.
        """
        cols = self._columns
        if cols is None:
            cols = tuple(getattr(self, field).tolist()
                         for field, _ in _NODE_FIELDS)
            self._columns = cols
        return cols

    def _ensure_strash(self) -> Dict[Tuple[int, int], int]:
        strash = self._strash
        if strash is None:
            strash = {}
            ands = np.flatnonzero(self._kind == KIND_AND)
            f0s = self._fanin0[ands]
            f1s = self._fanin1[ands]
            for var, f0, f1 in zip(ands.tolist(), f0s.tolist(), f1s.tolist()):
                strash[(f0, f1)] = var
            self._strash = strash
        return strash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AigSnapshot(name={self.name!r}, gen={self.generation}, "
            f"pis={self.num_pis}, pos={self.num_pos}, ands={self.num_ands})"
        )


class SnapshotDelta:
    """The slots touched between two mutation epochs of one graph.

    Per-node state is shipped sparsely (``vars`` plus one value column
    per array in :data:`_NODE_FIELDS`); the small whole-graph scalars
    (PIs/POs/counters/name) are shipped in full — they are a few dozen
    ints, not worth diffing.
    """

    __slots__ = (
        "base_epoch", "epoch", "vars", "fields", "size",
        "pis", "pos", "num_ands", "generation", "name",
    )

    def __init__(
        self,
        base_epoch: int,
        epoch: int,
        vars: np.ndarray,
        fields: Tuple[np.ndarray, ...],
        size: int,
        pis: Tuple[int, ...],
        pos: Tuple[int, ...],
        num_ands: int,
        generation: int,
        name: str,
    ):
        self.base_epoch = base_epoch
        self.epoch = epoch
        self.vars = vars
        self.fields = fields
        self.size = size
        self.pis = pis
        self.pos = pos
        self.num_ands = num_ands
        self.generation = generation
        self.name = name

    @property
    def num_dirty(self) -> int:
        return int(self.vars.size)

    def __getstate__(self):
        return (
            self.base_epoch, self.epoch, self.vars, self.fields, self.size,
            self.pis, self.pos, self.num_ands, self.generation, self.name,
        )

    def __setstate__(self, state) -> None:
        (
            self.base_epoch, self.epoch, self.vars, self.fields, self.size,
            self.pis, self.pos, self.num_ands, self.generation, self.name,
        ) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SnapshotDelta({self.base_epoch}->{self.epoch}, "
            f"dirty={self.num_dirty}/{self.size})"
        )


def capture_delta(aig: Aig, base_epoch: int) -> Optional[SnapshotDelta]:
    """Package the slots of ``aig`` touched since ``base_epoch``.

    Returns None when the graph's mutation journal no longer reaches
    back to ``base_epoch`` (trimmed, or a fresh ``copy()``); callers
    recapture in full.  An empty delta (no mutations) is still a valid
    delta — applying it only bumps the epoch.  Levels are settled first.
    """
    aig.settle_levels()
    dirty = aig.dirty_since(base_epoch)
    if dirty is None:
        return None
    order = sorted(dirty)
    fields = []
    for field, dtype in _NODE_FIELDS:
        column = getattr(aig, field)
        fields.append(np.array([column[v] for v in order], dtype=np.dtype(dtype)))
    return SnapshotDelta(
        base_epoch=base_epoch,
        epoch=aig.mutation_epoch,
        vars=np.array(order, dtype=np.int64),
        fields=tuple(fields),
        size=aig.size,
        pis=aig.pis,
        pos=aig.pos,
        num_ands=aig.num_ands,
        generation=aig.generation,
        name=aig.name,
    )
