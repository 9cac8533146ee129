"""Unit tests for the columnar cut-enumeration engine.

``tests/test_differential_fuzz.py`` pins the engine byte-identical to
the scalar merge reference (``tests/reference.py``) end-to-end; these
tests cover the pieces directly — the union/sign kernels, the worklist
merge, dominance ordering, truncation and the replay glue — so a
regression points at the component, not just "a fuzz seed diverged".
"""

from __future__ import annotations

import copy
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    capture_cut_managers,
    deep_chain_circuit,
    harvest_plan,
    random_aig,
    stage_tuple,
)
from reference import (
    ReferenceExecutor,
    ScalarCutManager,
    lift_lut_sweep,
    load_entry,
)
from test_differential_fuzz import SMOKE_SEEDS, fuzz_circuit
from repro.aig import Aig, AigSnapshot
from repro.aig.literals import lit_var
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core.operators import StageContext
from repro.core.partition import node_dividing
from repro.cuts import CutManager
from repro.cuts.cut import Cut
from repro.cuts import manager as manager_module
from repro.cuts.manager import EnumPlan, _build_cuts
from repro.errors import CutError
from repro.galois import Phase
from repro.galois.procpool import _MetricCollector
from repro.galois.simsched import SimulatedExecutor
from repro.library import get_library
from repro.rewrite.base import apply_candidate, find_best_candidate
from repro.npn.truth import (
    CUT_LEAF_SENTINEL,
    batch_cut_signs,
    batch_expand,
    batch_union_leaves,
    expand,
    expand_map16,
    full_mask,
    lift_lut,
    tag_leaves,
)


def _pad(leaves):
    return tuple(leaves) + (CUT_LEAF_SENTINEL,) * (4 - len(leaves))


def _entries(cutman):
    """The vars holding an entry in ``cutman``'s index table."""
    held = np.flatnonzero(cutman._tab[manager_module._STAMP] != -1)
    return held.tolist()


def _result_cuts(cutman, plan, t):
    """Task ``t``'s merged (pending) result rows as ``Cut`` objects."""
    rows = slice(plan.off[t], plan.off[t] + plan.cnt[t])
    return _build_cuts(*(col[rows] for col in cutman._arena.cols))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class TestKernels:
    def test_batch_union_matches_sorted_set_union(self):
        rng = random.Random(7)
        rows0, rows1, want = [], [], []
        for _ in range(400):
            c0 = sorted(rng.sample(range(40), rng.randint(1, 4)))
            c1 = sorted(rng.sample(range(40), rng.randint(1, 4)))
            rows0.append(_pad(c0))
            rows1.append(_pad(c1))
            want.append(sorted(set(c0) | set(c1)))
        leaves0 = np.array(rows0, dtype=np.int64)
        leaves1 = np.array(rows1, dtype=np.int64)
        tags, sizes = batch_union_leaves(tag_leaves(leaves0, 1),
                                         tag_leaves(leaves1, 2))
        valid = tags < CUT_LEAF_SENTINEL
        union = np.where(valid, tags >> 2, CUT_LEAF_SENTINEL)
        for row, size, expect in zip(union.tolist(), sizes.tolist(), want):
            assert size == len(expect)  # includes k-infeasible (> 4) rows
            assert row[: min(size, 4)] == expect[:4]
            assert all(x == CUT_LEAF_SENTINEL for x in row[size:])
        # The folded tags are the per-lane membership the truth-table
        # step used to broadcast: lane p of side s is set iff the union's
        # p-th leaf is one of side s's leaves.
        for bit, leaves in ((0, leaves0), (1, leaves1)):
            member = (union[:, :, None] == leaves[:, None, :]).any(axis=2) & valid
            assert np.array_equal((tags >> bit) & 1, member.astype(np.int64))

    def test_batch_cut_signs_matches_cut_sign(self):
        rng = random.Random(9)
        cuts = []
        for _ in range(200):
            leaves = tuple(sorted(rng.sample(range(200), rng.randint(1, 4))))
            cuts.append(Cut(leaves, 0, (0,) * len(leaves)))
        rows = np.array([_pad(c.leaves) for c in cuts], dtype=np.int64)
        got = batch_cut_signs(rows).tolist()
        assert got == [c.sign for c in cuts]

    def test_lift_lut_equals_the_mask_sweep(self):
        # The two byte tables OR-ed against one sweep per union mask.
        assert np.array_equal(lift_lut(), lift_lut_sweep())

    def test_lift_lut_equals_batch_expand_and_expand(self):
        # Every position mask x every 16-bit table against the gather
        # kernel it replaces, then the scalar ``expand`` on narrower
        # destination spaces (the kernel masks with full_mask(nd)).
        lut = lift_lut()
        assert lut.shape == (1 << 16, 16) and lut.dtype == np.uint16
        tts = np.arange(1 << 16)
        for m in range(16):
            pos = tuple(p for p in range(4) if (m >> p) & 1)
            want = batch_expand(tts, np.tile(expand_map16(pos), (1 << 16, 1)))
            assert (lut[:, m] == want).all(), m
        rng = random.Random(3)
        for _ in range(2000):
            nd = rng.randint(1, 4)
            dst = tuple(sorted(rng.sample(range(50), nd)))
            src = tuple(sorted(rng.sample(dst, rng.randint(1, nd))))
            tt = rng.getrandbits(1 << len(src))
            m = sum(1 << dst.index(leaf) for leaf in src)
            assert int(lut[tt, m]) & full_mask(nd) == expand(tt, src, dst)

    def test_sign_prefilter_never_drops_a_feasible_pair(self):
        # Exhaustive over a leaf universe full of sign collisions (ids
        # equal mod 64): popcount(sign0 | sign1) never exceeds the
        # union's leaf count, so "popcount > k" implies "infeasible".
        universe = (1, 2, 3, 65, 66, 129, 130)
        sets = [c for n in range(1, 5)
                for c in itertools.combinations(universe, n)]
        signs = batch_cut_signs(np.array([_pad(c) for c in sets], dtype=np.int64))
        for (a, sa), (b, sb) in itertools.product(zip(sets, signs), repeat=2):
            assert int(np.bitwise_count(sa | sb)) <= len(set(a) | set(b))


# ---------------------------------------------------------------------------
# Merge identity against the scalar oracle
# ---------------------------------------------------------------------------


def _enumerate_both(aig, max_cuts=12):
    scalar = ScalarCutManager(aig, k=4, max_cuts=max_cuts)
    columnar = CutManager(aig, k=4, max_cuts=max_cuts)
    live = aig.topo_ands()
    for v in live:
        scalar.fresh_cuts(v)
        columnar.fresh_cuts(v)
    return scalar, columnar, live


class TestMergeIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_per_node_merge_identical(self, seed):
        # Random circuits produce duplicate unions, dominated cuts and
        # k-infeasible pairs naturally; everything must match the
        # scalar first-wins filter bit for bit, including work charges.
        aig = random_aig(num_pis=6, num_nodes=120, num_pos=3, seed=seed)
        scalar, columnar, live = _enumerate_both(aig)
        for v in live:
            assert scalar.fresh_cuts(v) == columnar.fresh_cuts(v), v
        assert scalar.work == columnar.work

    def test_max_cuts_truncation_identical(self):
        aig = mtm_like(num_pis=16, num_nodes=300, seed=2)
        scalar, columnar, live = _enumerate_both(aig, max_cuts=3)
        for v in live:
            cuts = columnar.fresh_cuts(v)
            assert cuts == scalar.fresh_cuts(v)
            assert len(cuts) <= 4  # max_cuts plus the trailing trivial cut
            assert cuts[-1].leaves == (v,)
        assert scalar.work == columnar.work

    def test_merge_tasks_columnar_matches_per_task_scalar(self):
        aig = mtm_like(num_pis=16, num_nodes=300, seed=4)
        scalar, columnar, live = _enumerate_both(aig)
        fresh = CutManager(aig, k=4, max_cuts=12)
        plan = harvest_plan(fresh)
        fresh.merge_tasks_columnar(plan, plan.waves[0])
        for t, (root, f0, f1) in enumerate(zip(
                plan.var.tolist(), plan.lit0.tolist(), plan.lit1.tolist())):
            assert plan.pairs[t] == len(fresh.cuts(lit_var(f0))) * \
                len(fresh.cuts(lit_var(f1)))
            assert _result_cuts(fresh, plan, t) == scalar.fresh_cuts(root)

    def test_merge_tasks_columnar_charges_no_work(self):
        aig = mtm_like(num_pis=12, num_nodes=120, seed=5)
        cutman = CutManager(aig, k=4, max_cuts=12)
        plan = harvest_plan(cutman)
        before = cutman.work
        cutman.merge_tasks_columnar(plan, plan.waves[0])
        assert cutman.work == before  # the caller charges via install_cuts
        cutman.install_cuts(plan, plan.waves[0])
        assert cutman.work == before + plan.pairs.sum()
        for t, root in enumerate(plan.var.tolist()):
            assert cutman.cuts(root) == _result_cuts(cutman, plan, t)


# ---------------------------------------------------------------------------
# Kernel vs scalar oracle on adversarial fanin sets (property)
# ---------------------------------------------------------------------------

# Leaf ids that collide in the 64-bit signature (equal mod 64), few
# enough that duplicate unions and strict dominance chains are the norm.
_POOL = (1, 2, 3, 65, 66, 67, 129, 130)


def _pool_aig():
    aig = Aig()
    pis = [aig.add_pi() for _ in range(max(_POOL))]
    root = aig.and_(pis[0], pis[1])
    aig.add_po(root)
    return aig, lit_var(root)


@st.composite
def _fanin_sets(draw):
    k = draw(st.sampled_from((2, 3, 4)))
    leaf_sets = st.sets(st.sampled_from(_POOL), min_size=1, max_size=k)
    cut = st.tuples(leaf_sets, st.integers(0, 0xFFFF))
    side = st.lists(cut, min_size=1, max_size=7)
    return (k, draw(st.sampled_from((1, 2, 3, 12, None))),
            draw(st.integers(0, 3)), draw(side), draw(side))


class _FarLife:
    """Life stamps over a var universe too large to allocate: var ``v``
    reads ``v % 7 + 1`` (stands in for a manager's life mirror)."""

    def __getitem__(self, idx):
        return np.asarray(idx) % 7 + 1


def _cuts_of(aig, side):
    out = []
    for leaf_set, tt in side:
        leaves = tuple(sorted(leaf_set))
        out.append(Cut(leaves, tt & full_mask(len(leaves)),
                       tuple(aig.life_stamp(l) for l in leaves)))
    return out


def _merge_both(aig, root, k, max_cuts, compl, c0, c1, life=None):
    """The kernel's merge of fanin sets ``c0``/``c1`` (entered as the
    entries of vars 5 and 6) for ``root``, and the scalar oracle's."""
    f0, f1 = 2 * 5 + (compl & 1), 2 * 6 + (compl >> 1)
    kernel = CutManager(aig, k=k, max_cuts=max_cuts)
    kernel._sync()
    if life is not None:
        kernel._life = life
    load_entry(kernel, 5, c0)
    load_entry(kernel, 6, c1)
    plan = EnumPlan([root], [f0], [f1])
    kernel.merge_tasks_columnar(plan, plan.waves[0])
    want = ScalarCutManager(aig, k=k, max_cuts=max_cuts)._merge_scalar(
        root, f0, f1, c0, c1)
    assert plan.pairs[0] == kernel.vec_pairs == len(c0) * len(c1)
    return _result_cuts(kernel, plan, 0), want


class TestKernelEqualsScalarProperty:
    @settings(max_examples=300, deadline=None)
    @given(_fanin_sets())
    def test_merge_matches_scalar_oracle(self, case):
        k, max_cuts, compl, side0, side1 = case
        aig, root = _pool_aig()
        got, want = _merge_both(aig, root, k, max_cuts, compl,
                                _cuts_of(aig, side0), _cuts_of(aig, side1))
        # Cut equality covers leaves, tt and leaf_stamps; list equality
        # covers order and the max_cuts cut; the cached sign is extra.
        assert got == want
        assert [c.sign for c in got] == [c.sign for c in want]

    def test_packed_sort_keys_over_ids_straddling_2_30_and_2_31(self):
        # Leaf ids on both sides of 2**30 and next to the pad value
        # 2**31 - 1: the three packed keys must order, deduplicate and
        # dominance-filter them exactly as the scalar merge does.
        aig, root = _pool_aig()
        aig.life_stamp = lambda v: v % 7 + 1
        ids = (3, (1 << 30) - 1, 1 << 30, (1 << 30) + 1, (1 << 31) - 3,
               (1 << 31) - 2)
        rng = random.Random(5)
        side0 = [({ids[0], ids[2]}, rng.getrandbits(16)),
                 ({ids[1], ids[3], ids[5]}, rng.getrandbits(16)),
                 ({ids[4]}, rng.getrandbits(16)),
                 ({ids[2], ids[5]}, rng.getrandbits(16))]
        side1 = [({ids[1], ids[2]}, rng.getrandbits(16)),
                 ({ids[0], ids[4], ids[5]}, rng.getrandbits(16)),
                 ({ids[3]}, rng.getrandbits(16)),
                 ({ids[5]}, rng.getrandbits(16))]
        c0, c1 = _cuts_of(aig, side0), _cuts_of(aig, side1)
        for max_cuts in (2, 12, None):
            for compl in range(4):
                got, want = _merge_both(aig, root, 4, max_cuts, compl, c0, c1,
                                        life=_FarLife())
                assert got == want
                assert [c.sign for c in got] == [c.sign for c in want]
        assert any(l >= 1 << 30 for c in got for l in c.leaves)

    def test_leaf_id_at_the_pad_value_raises(self):
        aig, root = _pool_aig()
        aig.life_stamp = lambda v: v % 7 + 1
        c0 = _cuts_of(aig, [({3, (1 << 31) - 1}, 0b0110)])
        c1 = _cuts_of(aig, [({4}, 0b10)])
        with pytest.raises(CutError, match="leaf id"):
            _merge_both(aig, root, 4, 12, 0, c0, c1, life=_FarLife())


# ---------------------------------------------------------------------------
# Life mirror and lazy materialization
# ---------------------------------------------------------------------------


def _mirror_matches(cutman):
    aig = cutman.aig
    cutman._sync()
    for v in range(aig.size):
        want = -1 if aig.is_dead(v) else aig.life_stamp(v)
        assert cutman._life[v] == want, v


def _stamps_match(cutman, cuts):
    for cut in cuts:
        assert cut.leaf_stamps == tuple(
            cutman.aig.life_stamp(leaf) for leaf in cut.leaves)


class TestLifeMirror:
    def test_tracks_replace_deletion_and_id_reuse(self):
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        f = aig.and_(a, b)
        g = aig.and_(f, c)
        top = aig.and_(g, d)
        aig.add_po(top)
        cutman = CutManager(aig)
        _stamps_match(cutman, cutman.cuts(lit_var(top)))
        _mirror_matches(cutman)
        fv = lit_var(f)
        aig.replace(fv, a)               # f dies, g is restructured
        assert aig.is_dead(fv)
        _mirror_matches(cutman)
        reborn = aig.and_(b, c)          # DESIGN 4b: the id comes back
        assert lit_var(reborn) == fv and not aig.is_dead(fv)
        aig.add_po(aig.and_(reborn, d))
        _mirror_matches(cutman)
        for v in aig.topo_ands():        # re-merged sets carry new stamps
            _stamps_match(cutman, cutman.fresh_cuts(v))
        aig.trim_mutation_log(aig.mutation_epoch)
        _mirror_matches(cutman)          # nothing to patch
        aig.replace(lit_var(reborn), b)
        aig.trim_mutation_log(aig.mutation_epoch)
        _mirror_matches(cutman)          # journal gone: full rebuild
        for v in aig.topo_ands():
            _stamps_match(cutman, cutman.fresh_cuts(v))

    def test_mirror_follows_a_whole_rewrite(self):
        from repro.core import DACParaRewriter

        aig = mtm_like(num_pis=16, num_nodes=300, seed=2)
        cutman = CutManager(aig)
        for v in aig.topo_ands():
            cutman.fresh_cuts(v)
        result = DACParaRewriter(config=dacpara_config()).run(aig)
        assert result.replacements > 0
        _mirror_matches(cutman)
        for v in aig.topo_ands():
            _stamps_match(cutman, cutman.fresh_cuts(v))

    def test_dead_vars_leave_the_cache(self):
        # Both branches of ``_sync``: the journal patch, then (journal
        # trimmed) the full rebuild's sweep.  ``compact`` would count a
        # dead var's rows as live for the rest of the run otherwise.
        aig = mtm_like(num_pis=12, num_nodes=120, seed=4)
        cutman = CutManager(aig)
        for v in aig.topo_ands():
            cutman.cuts(v)
        for rebuild in (False, True):
            top = aig.topo_ands()[-1]
            aig.replace(top, aig.fanin0(top))
            assert any(aig.is_dead(v) for v in _entries(cutman))
            if rebuild:
                aig.trim_mutation_log(aig.mutation_epoch)
            cutman._sync()
            assert not any(aig.is_dead(v) for v in _entries(cutman))
        for v in aig.topo_ands():
            _stamps_match(cutman, cutman.fresh_cuts(v))

    def test_mirror_of_a_snapshot(self):
        aig = mtm_like(num_pis=12, num_nodes=120, seed=4)
        top = aig.topo_ands()[-1]
        aig.replace(top, aig.fanin0(top))  # leave dead slots behind
        assert any(aig.is_dead(v) for v in range(aig.size))
        snap = AigSnapshot.capture(aig)
        cutman = CutManager(snap)
        _mirror_matches(cutman)
        for v in aig.topo_ands():
            _stamps_match(cutman, cutman.cuts(v))


class TestLazyMaterialization:
    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_resident_enum_equals_eager_oracle(self, seed):
        aig = fuzz_circuit(seed)
        eager = ScalarCutManager(aig)   # builds every Cut
        lazy = CutManager(aig)          # builds none until asked
        levels = {}
        for v in aig.topo_ands():
            levels.setdefault(aig.level(v), []).append(v)
        for lv in sorted(levels):
            plan = lazy.plan_closures(levels[lv])
            assert plan.simple == len(plan.var) == len(levels[lv])
            lazy.merge_tasks_columnar(plan, plan.waves[0])
            lazy.install_cuts(plan, plan.waves[0])
            for root in levels[lv]:
                eager.fresh_cuts(root)
            # Same cost trajectory; every pair rode the kernel.
            assert lazy.work == eager.work == lazy.vec_pairs
        assert not lazy._memo
        for v in aig.topo_ands():
            assert lazy.cuts(v) == eager.cuts(v), v
            assert lazy.cuts(v) is lazy.cuts(v)  # materialized once
        columns = lazy.eval_harvest(aig.topo_ands())
        flat = [c for v in columns.roots for c in eager.cuts(v)]
        assert [columns.cut(i) for i in range(len(flat))] == flat


    def test_two_pass_run_materializes_no_root(self, monkeypatch):
        # Pass 2 answers nearly every root from cache; the enum operator
        # resolves at block level, so a cache answer builds no ``Cut``
        # list (it used to build — and discard — one per root).
        from reference import reference_rewrite
        from repro.config import dacpara_p1_config
        from repro.core import DACParaRewriter
        from test_procpool import aig_fingerprint, result_fingerprint

        managers = capture_cut_managers(monkeypatch)
        base = deep_chain_circuit(stages=6)
        config = dacpara_p1_config(workers=5)
        aig = copy.deepcopy(base)
        result = DACParaRewriter(config=config).run(aig)
        cutman = managers[0]
        assert result.passes == 2 and result.replacements > 0
        offs = cutman._tab[manager_module._OFF]
        built = [v for v in aig.topo_ands()
                 if cutman._memo.get(v, (None,))[0] == offs[v]]
        assert len(built) <= result.revalidated  # validation's re-merges
        a_ref = copy.deepcopy(base)
        r_ref = reference_rewrite(a_ref, config, 5, ("enum", "eval"))
        assert result_fingerprint(result) == result_fingerprint(r_ref)
        assert aig_fingerprint(aig) == aig_fingerprint(a_ref)


class TestDominanceOrder:
    def test_result_order_and_dominance_match_scalar(self):
        # A node whose fanin cut sets contain subset/superset unions:
        # x = a & b, y = x & c gives y unions {x,c}, {a,b,c} — and with
        # deeper sharing the same union arises from different pairs.
        aig = random_aig(num_pis=5, num_nodes=60, num_pos=2, seed=42)
        scalar, columnar, live = _enumerate_both(aig)
        saw_dominance = False
        for v in live:
            cuts = columnar.fresh_cuts(v)
            assert cuts == scalar.fresh_cuts(v)
            # Exact order contract: sorted by (-size, leaves) with the
            # trivial cut appended last.
            body, trivial = cuts[:-1], cuts[-1]
            assert trivial.leaves == (v,)
            assert body == sorted(body, key=lambda c: (-c.size, c.leaves))
            # No cut in the set dominates another (the filter's job).
            for i, a in enumerate(body):
                for b in body[i + 1:]:
                    if a.dominates(b) or b.dominates(a):
                        saw_dominance = True
        assert not saw_dominance


# ---------------------------------------------------------------------------
# Satellites: errors, counters
# ---------------------------------------------------------------------------


class TestLiveCutsError:
    def test_uncached_var_raises_descriptive_cut_error(self):
        aig = mtm_like(num_pis=8, num_nodes=40, seed=0)
        cutman = ScalarCutManager(aig, k=4, max_cuts=12)
        var = aig.topo_ands()[0]
        with pytest.raises(CutError, match=f"node {var}"):
            cutman._live_cuts(var)


class TestObserverEmissions:
    def test_merge_tasks_emits_batch_telemetry(self):
        aig = mtm_like(num_pis=12, num_nodes=120, seed=5)
        cutman = CutManager(aig, k=4, max_cuts=12)
        plan = harvest_plan(cutman)
        collector = _MetricCollector()
        cutman.merge_tasks_columnar(plan, plan.waves[0], observer=collector)
        names = [obs[0] for obs in collector.observations]
        assert names.count("enum_batch_size") == 1
        phases = sorted(
            dict(labels)["phase"]
            for name, labels, _ in collector.observations
            if name == "enum_kernel_seconds"
        )
        assert phases == ["filter", "union"]


# ---------------------------------------------------------------------------
# Replay glue
# ---------------------------------------------------------------------------


def _enum_stage(manager, executor):
    config = dacpara_config(workers=6)
    aig = mtm_like(num_pis=12, num_nodes=200, seed=3)
    cutman = manager(aig, max_cuts=config.max_cuts)
    live = aig.topo_ands()
    ctx = StageContext(aig=aig, cutman=cutman, library=get_library(),
                       config=config)
    ex = executor(6)
    levels = {}
    for v in live:
        levels.setdefault(aig.level(v), []).append(v)
    stages = [ex.run_enum("enum", levels[lv], ctx) for lv in sorted(levels)]
    cuts = {v: cutman.fresh_cuts(v) for v in live}
    return stages, cuts, cutman.work


class TestRunEnumBatched:
    def test_replay_byte_identical_to_operator_path(self):
        s_col, cuts_col, work_col = _enum_stage(CutManager, SimulatedExecutor)
        s_sca, cuts_sca, work_sca = _enum_stage(ScalarCutManager,
                                                ReferenceExecutor)
        assert cuts_col == cuts_sca
        assert work_col == work_sca
        for a, b in zip(s_col, s_sca):
            assert (a.activities, a.committed, a.conflicts,
                    a.useful_units, a.start_time, a.end_time) == \
                   (b.activities, b.committed, b.conflicts,
                    b.useful_units, b.start_time, b.end_time)


# ---------------------------------------------------------------------------
# Closure waves: the replay against the per-root operator, hazard by hazard
# ---------------------------------------------------------------------------

_BLOCKER = object()


class _Recorder:
    """Executor mixin: logs the ``(locks, cost)`` phases every activity
    requests, aborted attempts included, in execution order.  With
    ``blocker = (locks, cost)`` an extra first activity holds ``locks``
    for ``cost`` units — the injected conflict."""

    blocker = None

    def run(self, name, items, operator):
        self.log = log = []

        def recording(item):
            if item is _BLOCKER:
                yield Phase(*self.blocker)
                return
            phases = []
            log.append((item, phases))
            for phase in operator(item):
                phases.append((phase.locks, phase.cost))
                yield phase

        if self.blocker is not None:
            items = [_BLOCKER] + list(items)
        return super().run(name, items, recording)


class _RecordingSimulated(_Recorder, SimulatedExecutor):
    pass


class _RecordingReference(_Recorder, ReferenceExecutor):
    pass


def _closure_stage(build, workers=1, blocker=None):
    """One enum stage on the production path and on the per-root
    operator over :class:`ScalarCutManager`; ``build(manager_class)``
    returns ``(cutman, worklist)`` — deterministic, so both sides see
    the same ids.  Asserts everything observable equal and returns the
    production side's ``(log, cutman)``."""
    sides = []
    for manager, executor in ((CutManager, _RecordingSimulated),
                              (ScalarCutManager, _RecordingReference)):
        cutman, worklist = build(manager)
        ctx = StageContext(aig=cutman.aig, cutman=cutman,
                           library=get_library(),
                           config=dacpara_config(workers=workers))
        ex = executor(workers)
        ex.blocker = blocker
        stage = ex.run_enum("enum", worklist, ctx)
        sides.append((ex.log, cutman, cutman.work, stage_tuple(stage)))
    (log, cutman, work, stage), (ref_log, ref_cutman, ref_work, ref_stage) = sides
    assert log == ref_log
    assert work == ref_work
    assert stage == ref_stage
    for v in cutman.aig.topo_ands():
        assert cutman.has_fresh_entry(v) == ref_cutman.has_fresh_entry(v), v
        assert cutman.cuts(v) == ref_cutman.cuts(v), v
    return log, cutman


def _shared_cone():
    """``s = t & c`` over ``t = a & b``, under two roots ``r1 = s & d``
    and ``r2 = s & e``: on a cold cache the whole cone is one closure,
    three waves deep."""
    aig = Aig()
    a, b, c, d, e = (aig.add_pi() for _ in range(5))
    t = aig.and_(a, b)
    s = aig.and_(t, c)
    r1, r2 = aig.and_(s, d), aig.and_(s, e)
    aig.add_po(r1)
    aig.add_po(r2)
    return aig, {"t": lit_var(t), "s": lit_var(s),
                 "r1": lit_var(r1), "r2": lit_var(r2)}


def _shared_fanin(*order):
    def build(manager):
        aig, nodes = _shared_cone()
        return manager(aig, max_cuts=12), [nodes[name] for name in order]
    return build


class TestClosureReplay:
    @pytest.mark.parametrize("workers", (1, 5))
    def test_first_toucher_installs_shared_cold_fanin(self, workers):
        nodes = _shared_cone()[1]
        log, cutman = _closure_stage(_shared_fanin("r1", "r2"),
                                     workers=workers)
        (r1, (phase1,)), (r2, (phase2,)) = log
        assert phase1[0] == {nodes["r1"], nodes["s"], nodes["t"]}
        assert phase2[0] == {nodes["r2"]}  # region and cost exclude them
        assert phase2[1] < phase1[1]
        assert cutman.kernel_calls == 3    # one per wave, not one per node

    @pytest.mark.parametrize("workers", (1, 5))
    @pytest.mark.parametrize("order", (("r1", "s", "r2"), ("s", "r2", "r1")))
    def test_closure_node_is_a_worklist_member(self, workers, order):
        # Level drift: ``s`` sits in the same worklist as its fanouts.
        # One block either way; after ``r1`` the member's own activity
        # is a one-unit cache answer (in flight together with ``r1`` it
        # first loses the lock on itself and retries).
        s = _shared_cone()[1]["s"]
        log, cutman = _closure_stage(_shared_fanin(*order), workers=workers)
        answers = [phases for item, phases in log if item == s]
        if order[0] == "r1":
            assert answers == [[(frozenset({s}), 1)]] * min(workers, 2)
        assert cutman.kernel_calls == 3

    @pytest.mark.parametrize("order", ((0, 1, 2), (2, 1, 0), (1, 2, 0)))
    def test_order_dependent_boundary_stays_scalar(self, order, monkeypatch):
        # ``x``'s entry stays stamp-fresh while one of its cuts dies.
        # ``r1 = x & e`` and ``r2 = (x & f) & c0`` reach it: both take
        # the enum operator.  ``r3 = c0 & g`` shares the clean cold
        # ``c0`` with ``r2`` and still batches.
        def build(manager):
            aig = Aig()
            a, b, c, d, e, f, g, p, q = (aig.add_pi() for _ in range(9))
            dying = aig.and_(a, b)
            x = aig.and_(aig.and_(dying, c), d)
            aig.add_po(x)
            cutman = manager(aig, max_cuts=12)
            cutman.cuts(lit_var(x))
            aig.replace(lit_var(dying), a)
            assert cutman.has_fresh_entry(lit_var(x))
            assert not cutman.has_fresh_live_cuts(lit_var(x))
            c0 = aig.and_(p, q)
            roots = [aig.and_(x, e), aig.and_(aig.and_(x, f), c0),
                     aig.and_(c0, g)]
            for lit in roots:
                aig.add_po(lit)
            return cutman, [lit_var(roots[i]) for i in order]

        cutman, worklist = build(CutManager)
        plan = cutman.plan_closures(worklist)
        r1, r2, r3 = (worklist[order.index(i)] for i in range(3))
        assert plan.index[r1] is None and plan.index[r2] is None
        assert plan.waves[1].tolist() == [plan.index[r3]]
        assert plan.simple == 0 and plan.per_root == 3
        scalar = []
        real = CutManager._merge_node
        monkeypatch.setattr(
            CutManager, "_merge_node",
            lambda self, v: scalar.append(v) or real(self, v))
        log, cutman = _closure_stage(build)
        assert {r1, r2} <= set(scalar) and r3 not in scalar

    def test_recycled_ids_never_read_the_dead_incarnation(self):
        # The shape the deep ladder rung hits: a replacement's MFFC
        # dies, the next ``apply_candidate`` reuses the ids, and the
        # cache still holds the dead incarnation's block under the new
        # node.  Those rows are poisoned before every enum stage: one
        # read of them and the cut sets diverge from the reference's.
        base = deep_chain_circuit(stages=3)
        config = dacpara_config(workers=1)
        sides = []
        for manager, executor in ((CutManager, _RecordingSimulated),
                                  (ScalarCutManager, _RecordingReference)):
            aig = copy.deepcopy(base)
            cutman = manager(aig, max_cuts=config.max_cuts)
            ctx = StageContext(aig=aig, cutman=cutman, library=get_library(),
                               config=config)
            sides.append((aig, cutman, ctx, executor(1)))
        (aig, cutman, _, _), (ref_aig, ref_cutman, _, _) = sides
        driver = ScalarCutManager(aig)  # finds replacements; never the
        poisoned = 0                    # managers under test
        for worklist in node_dividing(aig):
            live = [v for v in worklist if not aig.is_dead(v)]
            cols, tab = cutman._arena.cols, cutman._tab
            for v in _entries(cutman):
                stamp, off, cnt, _ = tab[:, v].tolist()
                if (v < aig.size and aig.is_and(v) and stamp != aig.stamp(v)
                        and cols[2][off + cnt - 1, 0] != aig.life_stamp(v)):
                    rows = slice(off, off + cnt)
                    cols[0][rows] = 0  # the constant: alive, and wrong
                    cols[1][rows] = 0
                    cols[2][rows] = aig.life_stamp(0)
                    poisoned += 1
            logs = [ex.run_enum("enum", live, ctx) and ex.log
                    for _, _, ctx, ex in sides]
            assert logs[0] == logs[1]
            assert cutman.work == ref_cutman.work
            for root in live:
                if aig.is_dead(root):
                    continue
                cand = find_best_candidate(aig, root, driver, get_library(),
                                           config)
                if cand is not None:
                    apply_candidate(aig, cand)
                    apply_candidate(ref_aig, cand)
        assert poisoned > 0
        assert aig.num_ands == ref_aig.num_ands < base.num_ands
        for v in aig.topo_ands():
            assert cutman.cuts(v) == ref_cutman.cuts(v), v

    def test_pending_blocks_survive_compaction_between_waves(
            self, monkeypatch):
        compactions = []
        real_compact = CutManager.compact
        real_arena_compact = manager_module._Arena.compact

        def eager(self, plan=None):
            # Garbage rows past the live ones, and no threshold left.
            junk = 4 * max(self._arena.used, 8)
            self._arena.append(np.zeros((junk, 4), dtype=np.int64),
                               np.zeros(junk, dtype=np.int64),
                               np.zeros((junk, 4), dtype=np.int64),
                               np.zeros(junk, dtype=np.uint64))
            self._compact_at = 0
            real_compact(self, plan)

        def counting(self, offs, cnts):
            compactions.append(int(cnts.sum()))
            return real_arena_compact(self, offs, cnts)

        monkeypatch.setattr(CutManager, "compact", eager)
        monkeypatch.setattr(manager_module._Arena, "compact", counting)
        log, cutman = _closure_stage(_shared_fanin("r1", "r2"))
        # Before wave 0, wave 1 and wave 2 — each time keeping more
        # rows: the earlier waves' pending results.
        assert len(compactions) == 3
        assert compactions == sorted(set(compactions))

    def test_simple_root_retry_before_any_flush_is_a_cache_answer(self):
        # ``q`` is a simple task whose first attempt loses its lock: its
        # install is still pending when the retry pops, ahead of the
        # closure root ``r1`` whose walk would have flushed it.
        def build(manager):
            aig, nodes = _shared_cone()
            a, b, c, d, e = (aig.add_pi() for _ in range(5))
            simple = [aig.and_(a, b), aig.and_(c, d), aig.and_(d, e)]
            for lit in simple:
                aig.add_po(lit)
            return (manager(aig, max_cuts=12),
                    [lit_var(lit) for lit in simple] + [nodes["r1"]])

        cutman, worklist = build(CutManager)
        plan = cutman.plan_closures(worklist)
        assert plan.simple == 3 and plan.per_root == 1
        q = worklist[0]
        log, cutman = _closure_stage(build, workers=2, blocker=((q,), 2))
        attempts = [phases for item, phases in log if item == q]
        assert len(attempts) == 2 and attempts[1] == [(frozenset({q}), 1)]

    def test_aborted_install_retries_as_cache_answer(self, monkeypatch):
        installs = []
        real = CutManager.install_cuts
        monkeypatch.setattr(
            CutManager, "install_cuts",
            lambda self, plan, tasks:
                installs.extend(plan.var[tasks].tolist()) or real(self, plan, tasks))
        r1 = _shared_cone()[1]["r1"]
        log, cutman = _closure_stage(_shared_fanin("r1", "r2"), workers=2,
                                     blocker=((r1,), 1000))
        attempts = [phases for item, phases in log if item == r1]
        assert len(attempts) == 2
        assert len(attempts[0][0][0]) == 3 and attempts[0][0][1] > 1
        assert attempts[1] == [(frozenset({r1}), 1)]
        assert sorted(installs) == sorted(set(installs))  # nothing twice
        assert len(installs) == 4
