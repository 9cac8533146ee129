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

from reference import ReferenceExecutor, eval_tasks_scalar
from repro.aig import Aig
from repro.aig.literals import lit_var
from repro.aig.snapshot import AigSnapshot
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core.operators import StageContext
from repro.cuts import CutManager
from repro.galois.procpool import _MetricCollector
from repro.galois.simsched import SimulatedExecutor
from repro.library import get_library
from repro.npn import ensure_canon_lut, npn_canon
from repro.npn.canon import _TRANSFORMS, npn_canon_batch_rows
from repro.npn.truth import batch_lift_tt4, expand
from repro.rewrite.columnar import (
    _allowed_mask,
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
                  if k[0] != "eval_vectorized_candidates_total"}
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
        from repro.library.structures import Structure

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
