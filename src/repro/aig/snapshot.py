"""Immutable fanin snapshot of an AIG for the shard pool.

A pool worker rebuilds one shard's sub-AIG from the parent graph
(:func:`~repro.core.shards.build_shard_aig`), which reads each owned
node's two fanin literals and nothing else.  ``AigSnapshot`` captures
exactly that into flat numpy arrays — node kinds plus the two fanin
columns — so the graph crosses the process boundary as one compact
pickle and the workers share no mutable state with the parent (the
paper's "thread-local copies" discipline taken across address spaces).

**Deltas** keep repeated hand-offs cheap: every snapshot records the
:attr:`Aig.mutation_epoch` it was captured at.
:meth:`AigSnapshot.delta_since` packages only the slots touched since
that epoch; :meth:`AigSnapshot.apply_delta` patches a base snapshot
into the newer one without re-shipping the whole graph.  The base
itself crosses the process boundary one way only — as its pickle
(:mod:`repro.galois.shipper`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import AigError
from .graph import KIND_AND, Aig

#: (attribute name, numpy dtype) of every per-node array in a snapshot,
#: in pickling/shipping order; deltas iterate the same table.
_NODE_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("_kind", "int8"),
    ("_fanin0", "int64"),
    ("_fanin1", "int64"),
)


class AigSnapshot:
    """A frozen, picklable copy of one AIG state's fanin columns."""

    __slots__ = ("_kind", "_fanin0", "_fanin1", "epoch")

    def __init__(self, kind: np.ndarray, fanin0: np.ndarray,
                 fanin1: np.ndarray, epoch: int = 0):
        self._kind = kind
        self._fanin0 = fanin0
        self._fanin1 = fanin1
        self.epoch = epoch

    @classmethod
    def capture(cls, aig: Aig) -> "AigSnapshot":
        """Copy the fanin state of ``aig`` into flat arrays."""
        return cls(*(np.array(getattr(aig, field), dtype=dtype)
                     for field, dtype in _NODE_FIELDS),
                   epoch=aig.mutation_epoch)

    @property
    def size(self) -> int:
        return len(self._kind)

    def fanin0(self, var: int) -> int:
        if self._kind[var] != KIND_AND:
            raise AigError(f"node {var} has no fanins")
        return int(self._fanin0[var])

    def fanin1(self, var: int) -> int:
        if self._kind[var] != KIND_AND:
            raise AigError(f"node {var} has no fanins")
        return int(self._fanin1[var])

    # -- pickling ------------------------------------------------------

    def __getstate__(self):
        return self._kind, self._fanin0, self._fanin1, self.epoch

    def __setstate__(self, state) -> None:
        self._kind, self._fanin0, self._fanin1, self.epoch = state

    # -- deltas --------------------------------------------------------

    def delta_since(self, aig: Aig) -> Optional["SnapshotDelta"]:
        """Delta bringing this snapshot up to ``aig``'s current state.

        Returns None when ``aig``'s mutation journal no longer reaches
        back to this snapshot's epoch (trimmed, or the graph is a
        ``copy()`` that restarted its journal) — the caller must fall
        back to a full :meth:`capture`.  An empty delta (no mutations)
        is still a valid delta — applying it only bumps the epoch.
        """
        dirty = aig.dirty_since(self.epoch)
        if dirty is None:
            return None
        order = sorted(dirty)
        return SnapshotDelta(
            base_epoch=self.epoch,
            epoch=aig.mutation_epoch,
            vars=np.array(order, dtype=np.int64),
            fields=tuple(
                np.array([getattr(aig, field)[v] for v in order], dtype=dtype)
                for field, dtype in _NODE_FIELDS),
            size=aig.size,
        )

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
        if delta.size < self.size:
            raise AigError("snapshot slot arrays never shrink")
        columns = []
        for (field, dtype), values in zip(_NODE_FIELDS, delta.fields):
            base = getattr(self, field)
            out = np.zeros(delta.size, dtype=dtype)
            out[: len(base)] = base
            out[delta.vars] = values
            columns.append(out)
        return AigSnapshot(*columns, epoch=delta.epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AigSnapshot(epoch={self.epoch}, size={self.size})"


class SnapshotDelta:
    """The slots touched between two mutation epochs of one graph:
    ``vars`` plus one value column per array in :data:`_NODE_FIELDS`."""

    __slots__ = ("base_epoch", "epoch", "vars", "fields", "size")

    def __init__(self, base_epoch: int, epoch: int, vars: np.ndarray,
                 fields: Tuple[np.ndarray, ...], size: int):
        self.base_epoch = base_epoch
        self.epoch = epoch
        self.vars = vars
        self.fields = fields
        self.size = size

    @property
    def num_dirty(self) -> int:
        return int(self.vars.size)

    def __getstate__(self):
        return self.base_epoch, self.epoch, self.vars, self.fields, self.size

    def __setstate__(self, state) -> None:
        self.base_epoch, self.epoch, self.vars, self.fields, self.size = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SnapshotDelta({self.base_epoch}->{self.epoch}, "
            f"dirty={self.num_dirty}/{self.size})"
        )
