"""The graph store and the merge kernel's scratch (DESIGN §4k, §4c):
what a read graph holds per AND, how its fanout lists and packed strash
keys behave, and how wide one merge-kernel call may get.

Besides the cut arena (``tests/test_cut_store.py``), the ``Aig`` store
and the widest kernel call set a run's peak RSS, so the first and the
last pins here are memory budgets.
"""

from __future__ import annotations

import copy
import gc
import tracemalloc

import numpy as np
import pytest

from reference import ScalarCutManager
from repro.aig import Aig, check, read_aiger, write_aig
from repro.aig.graph import strash_key, strash_pair
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.cuts import CutManager
from repro.cuts import manager as manager_module
from repro.cuts.manager import _WAVE_PAIRS, _build_cuts
from repro.errors import AigError


class TestGraphBytes:
    def test_read_graph_bytes_per_and(self, tmp_path):
        """Traced bytes ``read_aiger`` leaves allocated for
        ``mtm_like(16, 1500, seed=7)`` (2 067 ANDs): 594 per AND while
        each var's fanouts were a ``set`` and each strash key a tuple;
        405 with fanout lists and packed int keys; 334 with the stamps
        in int64 columns and one journal entry per node."""
        path = tmp_path / "c.aig"
        aig = mtm_like(16, 1500, seed=7)
        ands = aig.num_ands
        write_aig(aig, path)
        del aig
        gc.collect()
        tracemalloc.start()
        try:
            aig = read_aiger(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert aig.num_ands == ands == 2067
        assert held / ands <= 345


class TestFanoutLists:
    def test_insertion_order_through_redirect_and_delete(self):
        """A fanout list keeps its readers in the order they attached:
        a recycled (smaller) id attached last stays last, and a
        redirect appends the redirected reader at the end."""
        aig = Aig()
        a, b, c, d, e = (aig.add_pi() for _ in range(5))
        x = aig.and_(a, b) >> 1
        y = aig.and_(a, c) >> 1
        z = aig.and_(a, d) >> 1
        q = aig.and_(b, c)
        w = aig.and_(q, e) >> 1
        for v in (x, z, w):
            aig.add_po(2 * v)
        assert aig.fanouts(a >> 1) == (x, y, z)
        aig.delete_if_dangling(y)  # frees y's id ...
        assert aig.fanouts(a >> 1) == (x, z)
        y2 = aig.and_(a, e) >> 1   # ... which the next AND reuses
        assert y2 == y < z
        aig.add_po(2 * y2)
        assert aig.fanouts(a >> 1) == (x, z, y2)
        aig.replace(q >> 1, a)     # w = q & e becomes a & e, which is y2
        assert aig.fanouts(a >> 1) == (x, z, y2)
        assert aig.fanouts(e >> 1) == (y2,)
        aig.replace(x, c)          # x's PO moves to c; x dies
        assert aig.fanouts(a >> 1) == (z, y2)
        assert w != y2 and aig.is_dead(w)
        for v in aig.nodes():
            assert len(set(aig.fanouts(v))) == len(aig.fanouts(v))
        check(aig)

    def test_redirect_appends_in_place_update(self):
        """An in-place fanin update appends the reader to its new
        fanin's list, after a reader with a larger id."""
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        m = aig.and_(b, c)
        r = aig.and_(m, d) >> 1
        s = aig.and_(a, b) >> 1
        for v in (r, s):
            aig.add_po(2 * v)
        assert aig.fanouts(b >> 1) == (m >> 1, s)
        aig.replace(m >> 1, b)     # r = m & d becomes b & d in place
        assert r < s and aig.fanouts(b >> 1) == (s, r)
        assert aig.fanouts(d >> 1) == (r,)
        check(aig)


class TestCheckFanouts:
    def _graph(self):
        aig = Aig()
        a, b, c = (aig.add_pi() for _ in range(3))
        x = aig.and_(a, b)
        aig.add_po(aig.and_(x, c))
        check(aig)
        return aig, a >> 1, x >> 1

    def test_duplicate_fanout_entry_is_rejected(self):
        aig, a, x = self._graph()
        aig._fanouts[a].append(x)
        with pytest.raises(AigError, match=f"node {a}: fanouts"):
            check(aig)

    def test_fanout_list_disagreeing_with_fanins_is_rejected(self):
        aig, a, x = self._graph()
        aig._fanouts[a][0] = a  # same length, wrong reader
        with pytest.raises(AigError, match=f"node {a}: fanouts"):
            check(aig)


class TestStrashKey:
    def test_key_round_trips_at_the_largest_literal(self):
        """Literals stay below 2**32 (vars below 2**31): the packed key
        of the two largest is exact and distinct from its neighbours'."""
        lo, hi = (1 << 32) - 2, (1 << 32) - 1
        pairs = ((lo, hi), (lo - 1, hi), (lo - 1, lo), (2, hi), (2, 3))
        for pair in pairs:
            assert strash_pair(strash_key(*pair)) == pair
        assert len({strash_key(*pair) for pair in pairs}) == len(pairs)

    def test_graph_keys_are_packed(self):
        aig = mtm_like(8, 200, seed=1)
        assert len(aig._strash) == aig.num_ands
        for key, var in aig._strash.items():
            assert type(key) is int and key == strash_key(*aig.fanins(var))
            assert aig.has_and(*strash_pair(key)) == 2 * var


def _enumerated_below_widest_level(monkeypatch):
    """A manager over ``mtm_like(24, 8000, seed=7)`` (11 127 ANDs) with
    every level below its widest enumerated, that level's plan, and
    the log of each later kernel call's ``(pairs, traced peak bytes)``."""
    aig = mtm_like(24, 8000, seed=7)
    cutman = CutManager(aig, max_cuts=dacpara_config().max_cuts)
    levels: dict = {}
    for v in aig.topo_ands():
        levels.setdefault(aig.level(v), []).append(v)
    widest = max(levels, key=lambda lev: len(levels[lev]))
    for level in sorted(levels):
        if level == widest:
            break
        plan = cutman.plan_closures(levels[level])
        cutman.merge_tasks_columnar(plan)
        cutman.install_cuts(plan, range(len(plan.var)))
    plan = cutman.plan_closures(levels[widest])
    calls: list = []
    real = CutManager._columnar_core

    def traced(self, roots, comp, rows, n0s, n1s):
        tracemalloc.start()
        try:
            out = real(self, roots, comp, rows, n0s, n1s)
            calls.append((int((n0s * n1s).sum()), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(CutManager, "_columnar_core", traced)
    return cutman, plan, calls


class TestChunkedWave:
    #: Traced peak of one kernel call: it merges fewer than
    #: ``_WAVE_PAIRS`` + 169 pairs (a chunk's last task adds at most
    #: (max_cuts + 1)**2), at 74 bytes a pair here (1.2 MB), its result
    #: block included.  The whole wave in one call peaked at 3.6 MB.
    CALL_BYTES = 2 << 20

    def test_wide_wave_runs_in_chunks(self, monkeypatch):
        """The widest level's single wave (1 002 tasks, 50 685 pairs)
        runs as several kernel calls, each under the byte bound; every
        task's result is the per-pair merge of the reference, and the
        rows, ``plan.pairs`` and ``work`` equal the one-call merge's."""
        cutman, plan, calls = _enumerated_below_widest_level(monkeypatch)
        assert len(plan.waves) == 1 and len(plan.var) == 1002
        whole = copy.deepcopy(cutman)
        whole_plan = copy.deepcopy(plan)
        cutman.merge_tasks_columnar(plan)
        assert int(plan.pairs.sum()) == 50685
        assert len(calls) >= 2
        assert cutman.kernel_calls - whole.kernel_calls == len(calls)
        assert sum(pairs for pairs, _ in calls) == int(plan.pairs.sum())
        assert all(pairs <= _WAVE_PAIRS + 169 for pairs, _ in calls)
        assert max(peak for _, peak in calls) < self.CALL_BYTES

        aig, scalar = cutman.aig, ScalarCutManager(cutman.aig, max_cuts=cutman.max_cuts)
        for t, v in enumerate(plan.var.tolist()):
            f0, f1 = aig.fanins(v)
            want = scalar._merge_scalar(v, f0, f1, cutman.cuts(f0 >> 1),
                                        cutman.cuts(f1 >> 1))
            off, cnt = plan.res[:, t]
            rows = slice(off, off + cnt)
            assert _build_cuts(*cutman._arena.rows(rows)) == want

        monkeypatch.setattr(manager_module, "_WAVE_PAIRS", 1 << 40)
        calls.clear()
        whole.merge_tasks_columnar(whole_plan)
        assert len(calls) == 1
        assert np.array_equal(plan.res, whole_plan.res)
        assert np.array_equal(plan.pairs, whole_plan.pairs)
        used = cutman._arena.used
        assert whole._arena.used == used
        for got, want in zip(cutman._arena.rows(slice(used)),
                             whole._arena.rows(slice(used))):
            assert np.array_equal(got, want)
        cutman.install_cuts(plan, range(len(plan.var)))
        whole.install_cuts(whole_plan, range(len(whole_plan.var)))
        assert cutman.work == whole.work
