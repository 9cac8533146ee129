"""Snapshot deltas and the mutation journal.

The contract under test: for any mutation sequence,
``base.apply_delta(base.delta_since(aig))`` is indistinguishable from a
fresh ``AigSnapshot.capture(aig)`` — same kind and fanin columns, same
epoch — and the epoch bookkeeping (``copy()``, journal trims)
can only ever force a *full recapture*, never a wrong delta.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.aig import Aig, AigSnapshot
from repro.aig.literals import lit_not, lit_var
from repro.errors import AigError

from conftest import random_aig

_ARRAYS = ("_kind", "_fanin0", "_fanin1")


def assert_snapshots_equal(a: AigSnapshot, b: AigSnapshot) -> None:
    for field in _ARRAYS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.epoch == b.epoch


def mutate_randomly(aig: Aig, rng: random.Random, ops: int) -> None:
    """A random create/kill sequence using only public mutators."""
    for _ in range(ops):
        choice = rng.random()
        lits = [2 * v for v in range(1, aig.size) if not aig.is_dead(v)]
        if choice < 0.45:
            f0 = rng.choice(lits) ^ rng.randrange(2)
            f1 = rng.choice(lits) ^ rng.randrange(2)
            aig.and_(f0, f1)
        elif choice < 0.70:
            ands = [v for v in aig.ands() if aig.nref(v) > 0]
            if ands:
                v = rng.choice(ands)
                # Redirecting a node to one of its own fanins is always
                # acyclic, and exercises deletion cascades + rehashing.
                aig.replace(v, aig.fanin0(v))
        elif choice < 0.85 and aig.num_pos:
            index = rng.randrange(aig.num_pos)
            aig.set_po(index, rng.choice(lits) ^ rng.randrange(2))
        elif choice < 0.95:
            aig.add_po(rng.choice(lits) ^ rng.randrange(2))
        else:
            aig.cleanup_dangling()


class TestMutationJournal:
    def test_epoch_monotonic_and_dirty_tracking(self):
        aig = Aig()
        e0 = aig.mutation_epoch
        a = aig.add_pi()
        b = aig.add_pi()
        assert aig.mutation_epoch > e0
        mid = aig.mutation_epoch
        lit = aig.and_(a, b)
        aig.add_po(lit)
        dirty = aig.dirty_since(mid)
        assert lit_var(lit) in dirty
        assert aig.dirty_since(aig.mutation_epoch) == set()

    def test_dirty_since_before_journal_is_none(self):
        aig = random_aig(num_pis=4, num_nodes=30, num_pos=2, seed=0)
        epoch = aig.mutation_epoch
        aig.trim_mutation_log(epoch)
        assert aig.dirty_since(epoch - 1) is None
        assert aig.dirty_since(epoch) == set()

    def test_trim_keeps_later_entries(self):
        aig = random_aig(num_pis=4, num_nodes=30, num_pos=2, seed=1)
        mid = aig.mutation_epoch
        lit = aig.and_(aig.pis[0] * 2 + 0 if False else 2 * aig.pis[0], 2 * aig.pis[1])
        after = aig.dirty_since(mid)
        aig.trim_mutation_log(mid)
        assert aig.dirty_since(mid) == after
        assert lit_var(lit) in after

    def test_epoch_survives_copy(self):
        aig = random_aig(num_pis=5, num_nodes=60, num_pos=3, seed=2)
        base = AigSnapshot.capture(aig)
        clone = aig.copy()
        # The copy's epoch continues the original's monotonic counter …
        assert clone.mutation_epoch >= aig.mutation_epoch
        # … but its journal restarts, so pre-copy epochs force a full
        # recapture instead of a bogus empty delta.
        assert clone.dirty_since(base.epoch) is None
        assert base.delta_since(clone) is None
        # New mutations on the copy are tracked from its own epoch on.
        e = clone.mutation_epoch
        lit = clone.add_pi()
        assert clone.dirty_since(e) == {lit_var(lit)}


class TestSnapshotDelta:
    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_equals_fresh_capture(self, seed):
        rng = random.Random(seed)
        aig = random_aig(
            num_pis=rng.randint(4, 7),
            num_nodes=rng.randint(40, 120),
            num_pos=rng.randint(2, 5),
            seed=seed,
        )
        base = AigSnapshot.capture(aig)
        mutate_randomly(aig, rng, ops=rng.randint(5, 40))
        delta = base.delta_since(aig)
        assert delta is not None
        patched = base.apply_delta(delta)
        assert_snapshots_equal(patched, AigSnapshot.capture(aig))
        # Fanins agree with the live graph on every AND.
        for v in aig.ands():
            assert (patched.fanin0(v), patched.fanin1(v)) == aig.fanins(v)

    def test_chained_deltas(self):
        rng = random.Random(99)
        aig = random_aig(num_pis=6, num_nodes=80, num_pos=3, seed=99)
        base = AigSnapshot.capture(aig)
        for _ in range(5):
            mutate_randomly(aig, rng, ops=6)
            patched = base.apply_delta(base.delta_since(aig))
            assert_snapshots_equal(patched, AigSnapshot.capture(aig))

    def test_empty_delta_only_bumps_epoch(self):
        aig = random_aig(num_pis=4, num_nodes=30, num_pos=2, seed=3)
        base = AigSnapshot.capture(aig)
        delta = base.delta_since(aig)
        assert delta.num_dirty == 0
        assert_snapshots_equal(base.apply_delta(delta), base)

    def test_delta_pickles_and_is_sparse(self):
        aig = random_aig(num_pis=6, num_nodes=400, num_pos=3, seed=4)
        base = AigSnapshot.capture(aig)
        aig.add_po(lit_not(2 * aig.pis[0]))
        delta = base.delta_since(aig)
        blob = pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL)
        full = pickle.dumps(base, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < len(full) / 5
        patched = base.apply_delta(pickle.loads(blob))
        assert_snapshots_equal(patched, AigSnapshot.capture(aig))

    def test_hand_off_rounds_stay_sparse_under_the_rebase_rule(self):
        """Mutate-then-hand-off rounds under the shipper's policy: every
        delta equals a fresh capture, a rebase round is charged a full
        capture, and the mean bytes per round stay under a fifth of it."""
        from repro.bench import mtm_like
        from repro.galois.shipper import needs_rebase

        def size(obj) -> int:
            return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

        aig = mtm_like(num_pis=32, num_nodes=2500, seed=5)
        rng = random.Random(7)
        base = AigSnapshot.capture(aig)
        aig.trim_mutation_log(base.epoch)
        full = shipped = 0
        for _ in range(6):
            for v in rng.sample(list(aig.ands()), 4):
                if aig.is_and(v):  # an earlier replace may have killed it
                    aig.replace(v, aig.fanin0(v))
            # The shipper's order: the rule, then the capture.
            rebase = needs_rebase(aig, base.epoch)
            fresh = AigSnapshot.capture(aig)
            full += size(fresh)
            if rebase:
                base = fresh
                aig.trim_mutation_log(base.epoch)
                shipped += size(fresh)
                continue
            delta = base.delta_since(aig)
            assert_snapshots_equal(base.apply_delta(delta), fresh)
            shipped += size(delta)
        assert shipped < full / 5

    def test_apply_delta_rejects_wrong_base(self):
        aig = random_aig(num_pis=4, num_nodes=30, num_pos=2, seed=5)
        base = AigSnapshot.capture(aig)
        aig.add_pi()
        later = AigSnapshot.capture(aig)
        aig.add_pi()
        delta = later.delta_since(aig)
        with pytest.raises(AigError):
            base.apply_delta(delta)

    def test_capture_delta_none_after_trim(self):
        aig = random_aig(num_pis=4, num_nodes=30, num_pos=2, seed=6)
        base = AigSnapshot.capture(aig)
        aig.add_pi()
        aig.trim_mutation_log(aig.mutation_epoch)
        assert base.delta_since(aig) is None


class TestPendingLevels:
    """Levels are settled lazily (DESIGN §4d) and a settled level is not
    journaled (it changes no stamp).  A snapshot carries no levels, so
    a delta taken with levels pending still equals a fresh capture, and
    the rebase rule's verdict does not depend on pending levels."""

    @staticmethod
    def _chain_with_pending_levels(length: int = 40):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        bottom = aig.and_(aig.and_(a, b), c)
        top = bottom
        for i in range(length):
            top = aig.and_(top, (a, b, c)[i % 3] ^ 1)
        aig.add_po(top)
        base = AigSnapshot.capture(aig)
        aig.trim_mutation_log(base.epoch)
        # Every chain node is now one level too high; none of them is
        # journaled.
        aig.replace(lit_var(bottom), aig.and_(a, c))
        assert aig._level_pending
        return aig, base

    def test_delta_with_pending_levels_equals_fresh_capture(self):
        aig, base = self._chain_with_pending_levels()
        patched = base.apply_delta(base.delta_since(aig))
        assert aig._level_pending  # the hand-off reads no level
        assert_snapshots_equal(patched, AigSnapshot.capture(aig))

    def test_needs_rebase_ignores_level_settles(self):
        """Settling the chain's levels journals nothing: the delta and
        the rebase verdict are the same before and after (while a
        settled level was journaled, the settle dirtied the whole chain
        and forced a rebase)."""
        from repro.galois.shipper import DELTA_MAX_FRACTION, needs_rebase

        aig, base = self._chain_with_pending_levels()
        dirty = aig.dirty_since(base.epoch)
        assert len(dirty) <= DELTA_MAX_FRACTION * aig.size
        assert needs_rebase(aig, base.epoch) is False
        assert aig._level_pending  # the rule settles nothing
        aig.settle_levels()
        assert aig.level_updates > 0
        assert aig.dirty_since(base.epoch) == dirty
        assert needs_rebase(aig, base.epoch) is False
