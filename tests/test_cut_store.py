"""The cut arena's storage (DESIGN §4c "Arena and ownership"): 42-byte
rows, reserved once per manager, exact at the edges of their int32
lanes.

A rewrite's cut arena is the largest thing it holds besides the graph,
so these pins are memory budgets: the row width, and no doubling copy
over a whole run (a copy holds the old and the new array at once).
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from conftest import capture_cut_managers, deep_chain_circuit
from repro.aig import Aig
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core.dacpara import DACParaRewriter
from repro.cuts import CutManager
from repro.cuts.manager import (
    _LEAF_LIMIT,
    _MIN_ARENA_ROWS,
    _STAMP_LIMIT,
    EnumPlan,
    _Arena,
)
from repro.errors import CutError


class TestRowLayout:
    def test_row_is_42_bytes(self):
        """int32 leaves and stamps, a uint16 table, a uint64 sign: 80
        bytes a row while every lane was int64."""
        cols = _Arena().cols
        assert [col.dtype for col in cols] == [np.int32, np.uint16, np.int32,
                                               np.uint64]
        assert sum(col[0].nbytes for col in cols) == 42


class TestReservation:
    @pytest.mark.parametrize("circuit", ("deep_chain", "mtm_like"))
    def test_a_run_makes_no_growth_copy(self, circuit, monkeypatch):
        """The reservation holds every row a run writes: the rows used
        pass the 1 024 a growable arena starts from, and none is
        copied."""
        managers = capture_cut_managers(monkeypatch)
        aig = (deep_chain_circuit() if circuit == "deep_chain"
               else mtm_like(16, 1500, seed=7))
        size = aig.size
        result = DACParaRewriter(dacpara_config()).run(aig)
        assert result.replacements > 0
        cutman, = managers
        arena = cutman._arena
        assert arena.reserved == 2 * (cutman.max_cuts + 1) * size
        assert _MIN_ARENA_ROWS < arena.used <= arena.reserved
        assert arena.growths == 0

    def test_unbounded_sets_grow_by_doubling(self):
        """``max_cuts=None`` bounds no entry, so nothing is reserved:
        the arena starts small and every overflow doubles it."""
        aig = deep_chain_circuit(stages=4)
        cutman = CutManager(aig, max_cuts=None)
        for v in aig.topo_ands():
            cutman.cuts(v)
        arena = cutman._arena
        assert arena.growths > 0
        assert arena.reserved == _MIN_ARENA_ROWS << arena.growths
        assert arena.used <= arena.reserved


class _ClippedLife:
    """The graph's life column read with ids past its room clipped to
    its last slot: the kernel gathers result stamps for leaves no graph
    this small holds."""

    def __init__(self, life):
        self.life = life

    def __getitem__(self, idx):
        return self.life.take(idx, mode="clip")

    take = __getitem__


def _entry_with_leaf(leaf: int, monkeypatch):
    """A manager over ``root = a & b`` whose entry for ``a`` is the one
    cut ``{leaf}`` (verified alive, so never checked against the
    graph), ``b`` its trivial entry, and the plan merging ``root``."""
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    root_lit = aig.and_(a, b)
    cutman = CutManager(aig)
    cutman._fit()
    leaves, tt, stamps, sign = cutman._arena.block(1)
    leaves[0, 0] = leaf
    tt[0] = 0b10
    sign[0] = 1 << (leaf & 63)
    off = cutman._arena.append(leaves, tt, stamps, sign)
    cutman._write(a >> 1, off, 1, aig.mutation_epoch)
    cutman._install_trivial([b >> 1])
    monkeypatch.setattr(aig, "_life", _ClippedLife(aig._life))
    plan = EnumPlan([root_lit >> 1], [aig.fanin0(root_lit >> 1)],
                    [aig.fanin1(root_lit >> 1)])
    return cutman, plan, a >> 1, b >> 1


class TestLaneLimits:
    def test_largest_leaf_id_round_trips(self, monkeypatch):
        """``_LEAF_LIMIT - 1`` fits the int32 leaf lane: it comes back
        exact from the arena, the eval harvest and the merge kernel."""
        big = _LEAF_LIMIT - 1
        cutman, plan, a, b = _entry_with_leaf(big, monkeypatch)
        assert cutman.eval_harvest([a]).leaves.tolist() == [[big, 0, 0, 0]]
        cutman.merge_tasks_columnar(plan)
        off, cnt = plan.res[:, 0].tolist()
        leaves = cutman._arena.rows(slice(off, off + cnt))[0]
        assert leaves.tolist() == [[b, big, 0, 0], [int(plan.var[0]), 0, 0, 0]]

    def test_leaf_limit_raises(self, monkeypatch):
        """The kernel's packed sort keys reserve 2**31 - 1 for the pad."""
        cutman, plan, _, _ = _entry_with_leaf(_LEAF_LIMIT, monkeypatch)
        with pytest.raises(CutError, match="leaf id"):
            cutman.merge_tasks_columnar(plan)

    def test_stamp_counter_past_int32_raises(self):
        """A life stamp of 2**31 - 1 is stored exact; a stamp counter
        past it is refused where stamps enter the arena instead of
        wrapping into an alias of an old stamp."""
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        cutman = CutManager(aig)
        aig._stamp_counter = _STAMP_LIMIT - 1
        x = aig.and_(a, b)
        assert cutman.cuts(x >> 1)[-1].leaf_stamps == (_STAMP_LIMIT,)
        y = aig.and_(x, c)
        with pytest.raises(CutError, match="stamp counter"):
            cutman.cuts(y >> 1)


def _cold_three_wave_plan():
    """A manager on a cold cache over ``r1 = s & d``, ``r2 = s & e``,
    ``s = t & c``, ``t = a & b``, and the plan for ``[r1, r2]``: three
    waves, each reading the one below's results."""
    aig = Aig()
    a, b, c, d, e = (aig.add_pi() for _ in range(5))
    s = aig.and_(aig.and_(a, b), c)
    roots = [aig.and_(s, d), aig.and_(s, e)]
    for lit in roots:
        aig.add_po(lit)
    cutman = CutManager(aig)
    plan = cutman.plan_closures([lit >> 1 for lit in roots])
    assert len(plan.waves) == 3
    return cutman, plan


class TestEnumPlanCopies:
    @pytest.mark.parametrize("how", ("deepcopy", "pickle"))
    def test_copied_plan_merges_like_the_original(self, how):
        """A deep-copied or pickled multi-wave plan merges to the same
        rows, ``res``, ``pairs`` and ``work`` as the original.  While
        ``off``/``cnt`` were views of ``res``, a copy filled its own
        ``off``/``cnt`` and the later waves read a ``res`` of zeros."""
        cutman, plan = _cold_three_wave_plan()
        twin = copy.deepcopy(cutman)
        other = (copy.deepcopy(plan) if how == "deepcopy"
                 else pickle.loads(pickle.dumps(plan)))
        for manager, p in ((cutman, plan), (twin, other)):
            manager.merge_tasks_columnar(p)
            manager.install_cuts(p, range(len(p.var)))
        assert np.array_equal(other.res, plan.res)
        assert other.pairs.tolist() == plan.pairs.tolist() == [1, 2, 3, 3]
        assert twin.work == cutman.work
        used = cutman._arena.used
        assert twin._arena.used == used
        for got, want in zip(twin._arena.rows(slice(used)),
                             cutman._arena.rows(slice(used))):
            assert np.array_equal(got, want)
