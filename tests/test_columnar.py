"""Unit tests for the columnar batch evaluation engine.

``tests/test_differential_fuzz.py`` pins the engine byte-identical to
the scalar reference (``tests/reference.py``) end-to-end; these tests
cover the pieces directly — the numpy kernels, the columnar views, the
replay glue and the observer parity — so a regression points at the
component, not just "a fuzz seed diverged".
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import deep_chain_circuit, random_aig
from reference import ReferenceExecutor, eval_tasks_scalar
from repro.aig import Aig
from repro.aig.literals import lit_var
from repro.aig.mffc import mffc
from repro.aig.snapshot import AigSnapshot
from repro.aig.traversal import tfi
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core.operators import StageContext
from repro.cuts import CutManager
from repro.cuts.manager import CutColumns
from repro.galois.procpool import _MetricCollector
from repro.galois.simsched import SimulatedExecutor
from repro.library import get_library
from repro.library.structures import Structure
from repro.npn import ensure_canon_lut, npn_canon
from repro.npn.canon import _TRANSFORMS, npn_canon_batch_rows
from repro.npn.truth import CUT_LEAF_SENTINEL, batch_lift_tt4, expand
from repro.rewrite.base import cut_tt4
from repro.rewrite.columnar import (
    _allowed_mask,
    _closures,
    _deref_cone,
    columnar_view,
    eval_tasks_columnar,
)


@pytest.fixture(scope="module", autouse=True)
def _lut():
    ensure_canon_lut()


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class TestKernels:
    def test_batch_lift_tt4_matches_expand(self):
        rng = random.Random(11)
        tts, sizes, want = [], [], []
        for n in (1, 2, 3, 4):
            for _ in range(50):
                tt = rng.randrange(1 << (1 << n))
                tts.append(tt)
                sizes.append(n)
                want.append(expand(tt, tuple(range(n)), (0, 1, 2, 3)))
        got = batch_lift_tt4(np.array(tts, dtype=np.uint32),
                             np.array(sizes, dtype=np.int64))
        assert got.tolist() == want

    def test_batch_lift_tt4_size4_is_identity(self):
        tts = np.array([0x0000, 0x1234, 0xFFFF], dtype=np.uint32)
        sizes = np.array([4, 4, 4], dtype=np.int64)
        assert batch_lift_tt4(tts, sizes).tolist() == [0x0000, 0x1234, 0xFFFF]

    def test_npn_canon_batch_rows_matches_scalar(self):
        rng = random.Random(5)
        tts = [rng.randrange(1 << 16) for _ in range(300)] + [0, 0xFFFF]
        canon_arr, row_arr = npn_canon_batch_rows(
            np.array(tts, dtype=np.uint32)
        )
        for tt, canon, row in zip(tts, canon_arr.tolist(), row_arr.tolist()):
            want_canon, want_transform = npn_canon(tt)
            assert canon == want_canon
            assert _TRANSFORMS[row] == want_transform

    def test_allowed_mask_correct_and_cached(self):
        allowed = frozenset({0x0000, 0x1234, 0xBEEF})
        mask = _allowed_mask(allowed)
        assert mask.shape == (65536,)
        assert mask.sum() == 3
        assert mask[0x1234] and mask[0xBEEF] and not mask[0x0001]
        assert _allowed_mask(allowed) is mask  # cached per frozenset


# ---------------------------------------------------------------------------
# Columnar views
# ---------------------------------------------------------------------------


class TestColumnarView:
    def test_live_and_snapshot_views_agree(self):
        aig = mtm_like(num_pis=12, num_nodes=120, seed=2)
        live = columnar_view(aig)
        snap = AigSnapshot.capture(aig)
        cold = columnar_view(snap)
        for field in ("kind", "fanin0", "fanin1", "nref", "level",
                      "stamp", "life"):
            assert list(getattr(live, field)) == list(getattr(cold, field))
        assert live.strash == cold.strash
        assert live.size == cold.size == aig.size

    def test_live_view_references_graph_columns(self):
        aig = mtm_like(num_pis=8, num_nodes=60, seed=1)
        view = columnar_view(aig)
        assert view.fanin0 is aig._fanin0  # no copy for a live graph
        assert view.strash is aig._strash

    def test_snapshot_columns_cached(self):
        aig = mtm_like(num_pis=8, num_nodes=60, seed=1)
        snap = AigSnapshot.capture(aig)
        assert snap.columns() is snap.columns()


# ---------------------------------------------------------------------------
# The batch engine against the scalar oracle
# ---------------------------------------------------------------------------


def _setup(num_nodes=220, seed=8, num_pis=16, config=None):
    aig = mtm_like(num_pis=num_pis, num_nodes=num_nodes, seed=seed)
    config = config or dacpara_config()
    cutman = CutManager(aig, max_cuts=config.max_cuts)
    live = aig.topo_ands()
    for root in live:
        cutman.fresh_cuts(root)
    return aig, cutman, live, cutman.eval_harvest(live)


class TestEvalTasksColumnar:
    def test_matches_scalar_on_live_and_snapshot(self):
        aig, _, live, tasks = _setup()
        config = dacpara_config()
        library = get_library()
        snap = AigSnapshot.capture(aig)
        want = eval_tasks_scalar(snap, tasks, config, _MetricCollector(),
                                 library)
        assert eval_tasks_columnar(snap, tasks, config, library) == want
        assert eval_tasks_columnar(aig, tasks, config, library) == want

    @pytest.mark.parametrize("overrides", [
        {"zero_gain": True},
        {"preserve_level": False},
        {"npn_classes": "all222"},
        {"max_structs": 1},
    ])
    def test_matches_scalar_under_config_variants(self, overrides):
        config = dataclasses.replace(dacpara_config(), **overrides)
        aig, _, live, tasks = _setup(num_nodes=150, seed=4, config=config)
        library = get_library()
        snap = AigSnapshot.capture(aig)
        want = eval_tasks_scalar(snap, tasks, config, _MetricCollector(),
                                 library)
        assert eval_tasks_columnar(snap, tasks, config, library) == want

    def test_dead_root_sentinel(self):
        aig, _, live, tasks = _setup(num_nodes=100, seed=6)
        config = dacpara_config()
        library = get_library()
        victim = live[-1]
        aig.replace(victim, aig.fanin0(victim))
        assert aig.is_dead(victim)
        snap = AigSnapshot.capture(aig)
        got = eval_tasks_columnar(snap, tasks, config, library)
        want = eval_tasks_scalar(snap, tasks, config, _MetricCollector(),
                                 library)
        assert got == want
        by_root = {root: (cand, units) for root, cand, units in got}
        assert by_root[victim] == (None, -1)  # the dead-root sentinel

    def test_stale_strash_hit_level_is_derived_not_read(self):
        """Lazy levels (DESIGN §4d): the roots settle up to their own
        level B; a structure that strash-hits a node stored *above* B
        must score it at its derived level.  Here the stale value would
        veto the only profitable candidate under ``preserve_level``."""
        aig = Aig()
        a, b, c, d, e = (aig.add_pi() for _ in range(5))
        n1 = aig.and_(a, b)
        n2 = aig.and_(a, c)
        root = aig.and_(n1, n2)  # a & b & c in three nodes, level 2
        aig.add_po(root)
        deep = aig.and_(d, e)
        for i in range(7):
            deep = aig.and_(deep, (d, e)[i % 2] ^ (i % 3 == 0))
        hit = aig.and_(n1, deep)
        aig.add_po(hit)
        aig.add_po(c)
        # ``hit`` becomes n1 & c — the root's function, at level 2 — but
        # stays stored at level 9 until something settles that high.
        aig.replace(lit_var(deep), c)
        rv, hv = lit_var(root), lit_var(hit)

        config = dataclasses.replace(
            dacpara_config(), preserve_level=True, npn_classes="all222")
        library = get_library()
        cutman = CutManager(aig, max_cuts=config.max_cuts)
        for lit in (n1, n2, root):
            cutman.fresh_cuts(lit_var(lit))
        tasks = cutman.eval_harvest([rv])
        assert hv in aig._level_pending and aig._level[hv] == 9

        got = eval_tasks_columnar(aig, tasks, config, library)
        assert hv in aig._level_pending  # scored without settling it
        # The reference reads through aig.level(), which settles ``hit``.
        assert got == eval_tasks_scalar(aig, tasks, config,
                                        _MetricCollector(), library)
        (_, candidate, _), = got
        assert candidate.gain == 2 and candidate.new_root_level == 2
        # The same table against a column that keeps the stale value
        # loses the candidate: the staleness is decision-relevant.
        stale = AigSnapshot.capture(aig)
        stale._level[hv] = 9
        (_, vetoed, _), = eval_tasks_columnar(stale, tasks, config, library)
        assert vetoed is None

    def test_observer_parity_with_scalar(self):
        aig, _, live, tasks = _setup(num_nodes=180, seed=9)
        config = dacpara_config()
        library = get_library()
        snap = AigSnapshot.capture(aig)
        col_scalar = _MetricCollector()
        col_batch = _MetricCollector()
        eval_tasks_scalar(snap, tasks, config, col_scalar, library)
        eval_tasks_columnar(snap, tasks, config, library, observer=col_batch)
        shared = {k: v for k, v in col_batch.counts.items()
                  if k[0] not in ("eval_vectorized_candidates_total",
                                  "eval_deref_walks_total")}
        assert shared == col_scalar.counts
        # Histogram observations arrive in the exact scalar order (the
        # engine walks tasks in worklist order); the batch-only series
        # trail at the end of the run.
        sim_obs = [o for o in col_batch.observations
                   if o[0] in ("cuts_per_node", "gain")]
        assert sim_obs == col_scalar.observations
        # Every structure evaluation rides the kernels.
        vec = col_batch.counts.get(("eval_vectorized_candidates_total", ()), 0)
        assert vec > 0
        names = [o[0] for o in col_batch.observations]
        assert names.count("eval_batch_size") == 1
        assert names.count("eval_kernel_seconds") == 2


class TestRunEvalBatched:
    def _stage(self, executor):
        config = dacpara_config(workers=6)
        aig, cutman, live, _ = _setup(num_nodes=200, seed=3, config=config)
        ctx = StageContext(aig=aig, cutman=cutman, library=get_library(),
                           config=config)
        stage = executor(6).run_eval("eval", live, ctx)
        prep = {v: ctx.prep_info.get(v) for v in live}
        return stage, prep, ctx.meter.units

    def test_replay_byte_identical_to_operator_path(self):
        s_col, prep_col, units_col = self._stage(SimulatedExecutor)
        s_sca, prep_sca, units_sca = self._stage(ReferenceExecutor)
        assert prep_col == prep_sca
        assert units_col == units_sca
        assert (s_col.activities, s_col.committed, s_col.conflicts,
                s_col.useful_units, s_col.start_time, s_col.end_time) == \
               (s_sca.activities, s_sca.committed, s_sca.conflicts,
                s_sca.useful_units, s_sca.start_time, s_sca.end_time)


class _TwoStructureLibrary:
    """Serves hand-built structures for one NPN class, nothing else."""

    def __init__(self, canon, structures):
        self.canon = canon
        self._structures = tuple(structures)

    def structures(self, canon_tt):
        return self._structures if canon_tt == self.canon else ()


class TestBranchAndBound:
    def test_later_gain_tie_with_fewer_added_nodes_still_wins(self):
        # root = ((a & b) & c) & d with a three-node MFFC.  The first
        # structure adds two nodes (gain 3 - 2 = 1); the second revives
        # a & b from the MFFC and adds one (gain 2 - 1 = 1), then walks
        # one more (folding) node *at* the bound: it must win the tie
        # on added nodes — the pruning test is strict.
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        m1 = aig.and_(a, b)
        m2 = aig.and_(m1, c)
        root_lit = aig.and_(m2, d)
        aig.add_po(root_lit)
        root = lit_var(root_lit)
        config = dataclasses.replace(dacpara_config(), npn_classes="all222")
        cutman = CutManager(aig, k=4, max_cuts=12)
        table = cutman.eval_harvest([root])
        wide = [i for i in range(len(table.tt))
                if table.leaves[i].tolist() == [lit_var(x) for x in (a, b, c, d)]]
        assert len(wide) == 1
        canon, transform = npn_canon(int(table.tt[wide[0]]))
        # Structure literal reading leaf position ``pos`` uncomplemented.
        plain = {pos: ((1 + i) << 1) | int(neg)
                 for i, (pos, neg) in enumerate(transform.leaf_assignment())}
        two_new = Structure(nodes=((plain[0] ^ 1, plain[1]),
                                   (5 << 1, plain[2] ^ 1)), out=6 << 1)
        revive_one_new = Structure(nodes=((plain[0], plain[1]),
                                          (5 << 1, plain[2] ^ 1),
                                          (6 << 1, 6 << 1)), out=7 << 1)
        library = _TwoStructureLibrary(canon, (two_new, revive_one_new))
        got = eval_tasks_columnar(aig, table, config, library)
        assert got == eval_tasks_scalar(aig, table, config,
                                        _MetricCollector(), library)
        (_, candidate, units), = got
        assert candidate.structure is revive_one_new and candidate.gain == 1
        assert units == sum(len(s.nodes) + 2 for s in library._structures)


def _one_cut(aig, root_lit, leaf_lits):
    """A one-row eval table holding ``root``'s cut over ``leaf_lits``,
    its NPN class, and the structure literal that reads each leaf
    uncomplemented under the witness transform."""
    root = lit_var(root_lit)
    table = CutManager(aig, k=4, max_cuts=12).eval_harvest([root])
    want = sorted(lit_var(x) for x in leaf_lits)
    want += [CUT_LEAF_SENTINEL] * (4 - len(want))
    (i,) = [i for i in range(len(table.tt)) if table.leaves[i].tolist() == want]
    row = CutColumns([root], [1], table.leaves[i:i + 1], table.tt[i:i + 1],
                     table.stamps[i:i + 1])
    canon, transform = npn_canon(cut_tt4(row.cut(0)))
    reads = {want[pos]: ((1 + k) << 1) | int(neg)
             for k, (pos, neg) in enumerate(transform.leaf_assignment())
             if want[pos] != CUT_LEAF_SENTINEL}
    return row, canon, [reads[lit_var(x)] for x in leaf_lits]


class TestBranchesByHand:
    """Scoring branches no ladder row reaches, each against the scalar
    reference and against the triple the refcount formulation gives."""

    def _check(self, aig, row, library, zero_gain, winner, gain):
        config = dataclasses.replace(
            dacpara_config(), npn_classes="all222", zero_gain=zero_gain)
        got = eval_tasks_columnar(aig, row, config, library)
        assert got == eval_tasks_scalar(aig, row, config, _MetricCollector(),
                                        library)
        (_, candidate, units), = got
        assert units == sum(len(s.nodes) + 2 for s in library._structures)
        if winner is None:
            assert candidate is None
        else:
            assert candidate.structure is winner and candidate.gain == gain

    @pytest.mark.parametrize("zero_gain", [False, True])
    def test_in_candidate_sharing_hit(self, zero_gain):
        # root = a & (d & (c & (a & b))): four nodes for a four-input AND.
        # The structure asks for the new node a & c twice; the second
        # request is answered by the candidate's own overlay.
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        root = aig.and_(aig.and_(aig.and_(aig.and_(a, b), c), d), a)
        aig.add_po(root)
        row, canon, (ra, rb, rc, rd) = _one_cut(aig, root, (a, b, c, d))
        shared = Structure(nodes=((ra, rc), (ra, rc), (6 << 1, rb),
                                  (7 << 1, rd)), out=8 << 1)
        library = _TwoStructureLibrary(canon, (shared,))
        self._check(aig, row, library, zero_gain, shared, 4 - 3)

    @staticmethod
    def _last_step_graph():
        # root = (a & b) & (a & c) with both fanins referenced elsewhere:
        # the MFFC is the root alone.  ``alt`` = (a & b) & c is the same
        # function already in the graph.
        aig = Aig()
        a, b, c = (aig.add_pi() for _ in range(3))
        m1, m2 = aig.and_(a, b), aig.and_(a, c)
        root = aig.and_(m1, m2)
        alt = aig.and_(m1, c)
        for lit in (root, m1, m2, alt):
            aig.add_po(lit)
        return (aig, *_one_cut(aig, root, (a, b, c)))

    @pytest.mark.parametrize("zero_gain", [False, True])
    def test_only_new_node_is_the_last_step_at_the_floor(self, zero_gain):
        # hit a & c, then a new node as the last step: 1 dead - 1 added.
        # Completing the row (gain 0) and dropping it at the add are the
        # same triple whichever way ``zero_gain`` is set.
        aig, row, canon, (ra, rb, rc) = self._last_step_graph()
        late_new = Structure(nodes=((ra, rc), (5 << 1, rb)), out=6 << 1)
        library = _TwoStructureLibrary(canon, (late_new,))
        self._check(aig, row, library, zero_gain,
                    late_new if zero_gain else None, 0)

    @pytest.mark.parametrize("zero_gain", [False, True])
    def test_last_step_new_node_after_a_gain_one_best(self, zero_gain):
        # ``all_hits`` resolves to ``alt`` without adding anything
        # (gain 1) and raises the floor to 1 under either setting.
        aig, row, canon, (ra, rb, rc) = self._last_step_graph()
        all_hits = Structure(nodes=((ra, rb), (5 << 1, rc)), out=6 << 1)
        late_new = Structure(nodes=((ra, rc), (5 << 1, rb)), out=6 << 1)
        library = _TwoStructureLibrary(canon, (all_hits, late_new))
        self._check(aig, row, library, zero_gain, all_hits, 1)

    @staticmethod
    def _leaf_in_mffc_graph():
        # m1 = a & b feeds m2 = m1 & c and m6 = a & m1; root = m2 & (m6 & e),
        # every node single-use: the MFFC is all five.  The cut
        # {m2, a, b, e} has leaf m2 inside it, which keeps m1 alive too.
        aig = Aig()
        a, b, c, e = (aig.add_pi() for _ in range(4))
        m1 = aig.and_(a, b)
        m2 = aig.and_(m1, c)
        m6 = aig.and_(a, m1)
        root = aig.and_(m2, aig.and_(m6, e))
        aig.add_po(root)
        assert mffc(aig, lit_var(root), [lit_var(m2)]) == {
            lit_var(root), lit_var(m6), lit_var(aig.fanin1(lit_var(root)))}
        return (aig, *_one_cut(aig, root, (m2, a, b, e)))

    @pytest.mark.parametrize("zero_gain", [False, True])
    def test_leaf_inside_mffc_then_revive_below_and_beside_it(self, zero_gain):
        aig, row, canon, (r2, ra, rb, re_) = self._leaf_in_mffc_graph()
        # hits m1 (below the leaf: already alive, nothing changes), then
        # m6 (dead: revived, 3 -> 2), then adds two: gain 0.
        revives = Structure(nodes=((ra, rb), (5 << 1, ra), (r2, re_),
                                   (7 << 1, 6 << 1)), out=8 << 1)
        # hits m1, adds two: gain 3 - 2.
        plain = Structure(nodes=((ra, rb), (5 << 1, re_), (6 << 1, r2)),
                          out=7 << 1)
        # adds one, then revives m6 and m6 & e (3 -> 1): the second
        # revive breaks a floor of 1, the final add a floor of 0.
        sinks = Structure(nodes=((r2, re_), (ra, rb), (6 << 1, ra),
                                 (7 << 1, re_), (8 << 1, 5 << 1)), out=9 << 1)
        self._check(aig, row, _TwoStructureLibrary(canon, (revives,)),
                    zero_gain, revives if zero_gain else None, 0)
        self._check(aig, row, _TwoStructureLibrary(canon, (sinks,)),
                    zero_gain, None, None)
        self._check(aig, row, _TwoStructureLibrary(canon, (revives, plain)),
                    zero_gain, plain, 1)


# ---------------------------------------------------------------------------
# Dead-set closures (DESIGN §4f)
# ---------------------------------------------------------------------------


def _closure_view(aig, root):
    view = columnar_view(aig)
    dead = _deref_cone(root, view.kind, view.fanin0, view.fanin1, view.nref)
    return dead, _closures(dead, view.fanin0, view.fanin1)


def _bounded_dead(dead, closure, leaves):
    kept = 0
    for leaf in leaves:
        kept |= closure.get(leaf, 0)
    return {v for k, v in enumerate(dead) if not kept >> k & 1}


class TestDeadSetClosures:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bounded_deref_is_root_dead_minus_leaf_closures(self, seed):
        rng = random.Random(seed)
        aig = random_aig(num_pis=5, num_nodes=rng.randint(8, 45),
                         num_pos=rng.randint(1, 3), seed=seed)
        for root in aig.topo_ands():
            dead, closure = _closure_view(aig, root)
            assert set(dead) == mffc(aig, root)
            inside = sorted(set(dead) - {root})
            cone = sorted(tfi(aig, [root]) - {root})
            for _ in range(4):
                pool = inside if inside and rng.random() < 0.5 else cone
                leaves = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
                assert _bounded_dead(dead, closure, leaves) == \
                    mffc(aig, root, leaves)

    @staticmethod
    def _diamond():
        # root = (s & a) & (s & b), s = c & d, every node single-use.
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        s = aig.and_(c, d)
        x, y = aig.and_(s, a), aig.and_(s, b)
        root = aig.and_(x, y)
        aig.add_po(root)
        return (aig, *(lit_var(lit) for lit in (root, x, y, s)))

    def test_shared_dead_fanin_is_counted_once(self):
        aig, root, x, y, s = self._diamond()
        dead, closure = _closure_view(aig, root)
        assert len(dead) == 4
        both = closure[x] | closure[y]
        assert both.bit_count() == 3  # x, y and s — s once
        assert _bounded_dead(dead, closure, [x, y]) == {root} == \
            mffc(aig, root, [x, y])

    def test_hit_below_a_kept_leaf_changes_nothing(self):
        aig, root, x, y, s = self._diamond()
        dead, closure = _closure_view(aig, root)
        assert closure[s] & ~closure[x] == 0
        assert _bounded_dead(dead, closure, [x, s]) == \
            _bounded_dead(dead, closure, [x]) == mffc(aig, root, [x])

    def test_chain_wider_than_64_bits(self):
        aig = Aig()
        lit = aig.and_(aig.add_pi(), aig.add_pi())
        chain = [lit_var(lit)]
        for _ in range(69):
            lit = aig.and_(lit, aig.add_pi())
            chain.append(lit_var(lit))
        aig.add_po(lit)
        root = chain[-1]
        dead, closure = _closure_view(aig, root)
        assert len(dead) == 70 and closure[root].bit_count() == 70
        assert closure[root] >= 1 << 64
        for depth in (0, 1, 35, 64, 68):
            leaf = chain[depth]
            assert closure[leaf].bit_count() == depth + 1
            assert _bounded_dead(dead, closure, [leaf]) == \
                mffc(aig, root, [leaf]) == set(chain[depth + 1:])


def _deref_walks(aig_like, tasks, config):
    collector = _MetricCollector()
    eval_tasks_columnar(aig_like, tasks, config, get_library(),
                        observer=collector)
    return collector.counts.get(("eval_deref_walks_total", ()), 0)


class TestDerefWalkCount:
    @pytest.mark.parametrize("build", [
        lambda: mtm_like(24, 2500, seed=7), deep_chain_circuit])
    def test_at_most_one_walk_per_scored_root_on_every_view(self, build):
        aig = build()
        config = dacpara_config()
        cutman = CutManager(aig, max_cuts=config.max_cuts)
        live = aig.topo_ands()
        for root in live:
            cutman.fresh_cuts(root)
        tasks = cutman.eval_harvest(live)
        walks = _deref_walks(aig, tasks, config)
        has_eligible = np.add.reduceat(
            tasks.leaves[:, 1] < CUT_LEAF_SENTINEL,
            np.cumsum(tasks.counts) - tasks.counts)
        assert 0 < walks <= np.count_nonzero(has_eligible)
        snap = AigSnapshot.capture(aig)
        assert _deref_walks(snap, tasks, config) == walks
