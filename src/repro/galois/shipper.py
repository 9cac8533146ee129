"""Both ends of the stage ref: how graph state reaches pool workers.

A stage ref is the picklable tuple
``(run_id, base_epoch, stage_epoch, base_blob, delta_blob)`` that rides
every chunk of a shard fan-out (one per seam-rotation pass).  The
parent side (:class:`_SnapshotShipper`) decides per pass what goes in
it; the worker side
(:func:`_resolve_snapshot`) turns it back into an
:class:`~repro.aig.snapshot.AigSnapshot` through a per-run base cache.
There is one base hand-off: the base snapshot's pickle, shipped on the
stage that captures it and assumed cached afterwards — a worker that
does not hold it (fresh after a pool restart, evicted) answers
:class:`SnapshotCacheMiss` and the parent resubmits that chunk
self-contained (:meth:`_SnapshotShipper.refill_ref`).
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..aig.snapshot import AigSnapshot

#: Ship per-stage deltas against the cached base, recapturing in full
#: once more than this fraction of node slots changed since the base.
DELTA_MAX_FRACTION = 0.25

#: Base snapshots a worker process keeps cached (one per concurrent
#: run id); old runs are evicted LRU.
_WORKER_CACHE_LIMIT = 4


class SnapshotCacheMiss(Exception):
    """A worker was handed an ``assume-cached`` snapshot ref it does
    not hold (fresh worker, evicted entry).  The parent catches this
    per-chunk and resubmits with a full payload."""


def needs_rebase(aig, base_epoch: int) -> bool:
    """The rebase rule: a delta against ``base_epoch`` is impossible
    (the journal no longer reaches it) or touches more than
    :data:`DELTA_MAX_FRACTION` of the node slots.  Pending levels are
    settled first, so the count is the one ``capture_delta`` will see."""
    aig.settle_levels()
    dirty = aig.dirty_since(base_epoch)
    return dirty is None or len(dirty) > DELTA_MAX_FRACTION * max(1, aig.size)


# ---------------------------------------------------------------------------
# Worker-side snapshot cache
# ---------------------------------------------------------------------------

#: run id -> cached *base* snapshot (epoch = the ref's base_epoch).
_WORKER_BASES: "OrderedDict[str, AigSnapshot]" = OrderedDict()
#: run id -> (stage epoch, patched snapshot) — memoizes the delta
#: application across the shard chunks of one pass landing on one
#: worker.
_WORKER_STAGES: Dict[str, Tuple[int, AigSnapshot]] = {}


def _store_worker_base(run_id: str, snapshot: AigSnapshot) -> None:
    _WORKER_BASES.pop(run_id, None)
    _WORKER_BASES[run_id] = snapshot
    _WORKER_STAGES.pop(run_id, None)
    while len(_WORKER_BASES) > _WORKER_CACHE_LIMIT:
        evicted_id, _ = _WORKER_BASES.popitem(last=False)
        _WORKER_STAGES.pop(evicted_id, None)


def _resolve_snapshot(ref, collector) -> AigSnapshot:
    """Materialize the snapshot a stage ref describes, using (and
    filling) this worker's per-run base cache."""
    run_id, base_epoch, epoch, base_blob, delta_blob = ref
    base = _WORKER_BASES.get(run_id)
    if base is not None and base.epoch == base_epoch:
        _WORKER_BASES.move_to_end(run_id)
        collector.count("worker_snapshot_cache_hits_total")
    elif base_blob is None:  # the parent assumed we hold it — we do not
        raise SnapshotCacheMiss(run_id, base_epoch)
    else:
        base = pickle.loads(base_blob)
        collector.count("worker_snapshot_cache_misses_total")
        _store_worker_base(run_id, base)
    if delta_blob is None:
        return base
    staged = _WORKER_STAGES.get(run_id)
    if staged is not None and staged[0] == epoch:
        return staged[1]
    snapshot = base.apply_delta(pickle.loads(delta_blob))
    _WORKER_STAGES[run_id] = (epoch, snapshot)
    return snapshot


# ---------------------------------------------------------------------------
# Parent-side snapshot shipping
# ---------------------------------------------------------------------------


class _SnapshotShipper:
    """Decides, per stage, how the graph state reaches the workers.

    Keeps the current *base* snapshot (plus its lazily-built pickle)
    and emits one of three ref kinds:

    * ``full``   — rebase: fresh capture, its pickle rides the ref;
      chosen on the first stage and whenever :func:`needs_rebase` says
      a delta is impossible or too large;
    * ``delta``  — the common case: a pickled
      :class:`~repro.aig.snapshot.SnapshotDelta`, base assumed cached;
    * ``cached`` — nothing changed since the base: epochs only.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.base: Optional[AigSnapshot] = None
        self._base_blob: Optional[bytes] = None
        self._stage_epoch: Optional[int] = None
        self._stage_delta_blob: Optional[bytes] = None

    # -- base management ----------------------------------------------

    def _rebase(self, aig) -> None:
        self.release()
        self.base = AigSnapshot.capture(aig)
        # The journal before the new base epoch can never be asked for
        # again (deltas are always relative to the current base).
        aig.trim_mutation_log(self.base.epoch)

    def _full_blob(self) -> bytes:
        if self._base_blob is None:
            self._base_blob = pickle.dumps(
                self.base, protocol=pickle.HIGHEST_PROTOCOL
            )
        return self._base_blob

    def release(self) -> None:
        """Drop the base and everything derived from it (idempotent)."""
        self.base = None
        self._base_blob = None
        self._stage_epoch = None
        self._stage_delta_blob = None

    # -- per-stage refs -----------------------------------------------

    def _ref(self, base_blob: Optional[bytes]) -> tuple:
        return (self.run_id, self.base.epoch, self._stage_epoch, base_blob,
                self._stage_delta_blob)

    def stage_ref(self, aig) -> Tuple[tuple, str, float]:
        """Returns ``(ref, kind, delta_ratio)`` for the current graph
        state."""
        if self.base is None or needs_rebase(aig, self.base.epoch):
            self._rebase(aig)
            self._stage_epoch, self._stage_delta_blob = self.base.epoch, None
            return self._ref(self._full_blob()), "full", 1.0
        epoch = aig.mutation_epoch  # after needs_rebase settled the levels
        if epoch == self.base.epoch:
            self._stage_epoch, self._stage_delta_blob = epoch, None
            return self._ref(None), "cached", 0.0
        delta = self.base.delta_since(aig)
        if epoch != self._stage_epoch or self._stage_delta_blob is None:
            # Otherwise: same graph state as the previous fan-out (a
            # pass that spliced nothing) — reuse the pickled delta, and
            # the workers' stage memo skips re-applying it.
            self._stage_delta_blob = pickle.dumps(
                delta, protocol=pickle.HIGHEST_PROTOCOL)
        self._stage_epoch = epoch
        ratio = delta.num_dirty / max(1, delta.size)
        return self._ref(None), "delta", ratio

    def refill_ref(self) -> tuple:
        """Self-contained ref for resubmitting after a worker-side
        :class:`SnapshotCacheMiss`: full base pickle plus the delta of
        the stage being retried."""
        return self._ref(self._full_blob())


def _ref_nbytes(ref) -> int:
    """Payload size of one stage ref as it crosses the pipe."""
    base_blob, delta_blob = ref[3], ref[4]
    return 64 + len(base_blob or b"") + len(delta_blob or b"")
