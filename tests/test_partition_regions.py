"""Property suite for the shard region extractor.

:func:`repro.core.partition.plan_regions` justifies running the
whole rewrite pipeline per shard concurrently with the same Theorem-1
argument the level pipeline uses for same-level nodes — so its output
must actually *have* the properties the theorem needs:

* coverage — every PO-reachable AND node lands in exactly one bucket
  (owned by one shard, or frozen boundary); live-but-unreachable nodes
  are the ``dangling`` set and nothing else;
* TFI/TFO-disjointness — no shard's owned node lies in the transitive
  fanin or fanout of another shard's owned nodes;
* boundary minimality — every frozen node is genuinely shared (it
  reaches the POs of at least two shards), so no node is frozen that
  could have been owned;
* support closure — a shard reads only PIs and boundary nodes from
  outside itself, which is what lets the sub-AIG treat them as
  pseudo-PIs.

Degenerate graphs (empty, single cone, fewer cones than shards, too
small for ``min_nodes``) must return ``None`` — the caller's signal to
fall back to the unsharded level pipeline — and the decomposition must
be deterministic, because shard payloads are part of the reproducible
byte-identity contract.
"""

from __future__ import annotations

from repro.aig import Aig, lit_var
from repro.aig.traversal import tfi, tfo
from repro.bench import mtm_like
from repro.core.partition import (
    cleanup_region,
    merge_work_estimates,
    plan_regions,
)

from conftest import random_aig

CIRCUITS = (
    lambda: random_aig(num_pis=6, num_nodes=60, num_pos=5, seed=3),
    lambda: random_aig(num_pis=8, num_nodes=140, num_pos=8, seed=11),
    lambda: mtm_like(num_pis=12, num_nodes=250, seed=101),
    lambda: mtm_like(num_pis=12, num_nodes=400, seed=5),
)


def _plans():
    for make in CIRCUITS:
        aig = make()
        for num_shards in (2, 3, 4, 8):
            plan = plan_regions(aig, num_shards, min_nodes=1)[0]
            if plan is not None:
                yield aig, plan


def _reachable(aig):
    seen = set()
    stack = [lit_var(lit) for lit in aig.pos]
    while stack:
        v = stack.pop()
        if v in seen or not aig.is_and(v):
            continue
        seen.add(v)
        stack.append(lit_var(aig.fanin0(v)))
        stack.append(lit_var(aig.fanin1(v)))
    return seen


def test_every_live_node_in_exactly_one_bucket():
    checked = 0
    for aig, plan in _plans():
        checked += 1
        reachable = _reachable(aig)
        owned_all = []
        for shard in plan.shards:
            owned_all.extend(shard.owned)
        # Owned sets are pairwise disjoint and disjoint from boundary.
        assert len(owned_all) == len(set(owned_all))
        assert not set(owned_all) & plan.boundary
        # Owned + boundary tile the PO-reachable ANDs exactly.
        assert set(owned_all) | plan.boundary == reachable
        # Dangling is everything live that reaches no PO.
        assert plan.dangling == set(aig.ands()) - reachable
    assert checked  # the corpus must actually produce decompositions


def test_shards_pairwise_tfi_tfo_disjoint():
    for aig, plan in _plans():
        cones = [set(shard.owned) for shard in plan.shards]
        for i, shard in enumerate(plan.shards):
            reach_fwd = tfo(aig, shard.owned)
            reach_bwd = tfi(aig, shard.owned)
            for j, other in enumerate(cones):
                if j == i:
                    continue
                assert not reach_fwd & other, (i, j)
                assert not reach_bwd & other, (i, j)


def test_boundary_nodes_are_genuinely_shared():
    """Minimality: a frozen node reaches the POs of >= 2 *groups* — no
    node is sacrificed to the boundary that one group could own.  The
    group TFIs come from ``plan.po_groups`` (not ``shard.pos``, which
    omits POs whose own drivers froze onto the boundary)."""
    for aig, plan in _plans():
        pos = aig.pos
        drivers: dict = {}
        for po_index, g_idx in enumerate(plan.po_groups):
            drivers.setdefault(g_idx, []).append(lit_var(pos[po_index]))
        group_tfis = [tfi(aig, roots) for roots in drivers.values()]
        for v in plan.boundary:
            sharing = sum(1 for cone in group_tfis if v in cone)
            assert sharing >= 2, v
        # The dual (ownership maximality): an owned node reaches
        # exactly one group's POs.
        for shard in plan.shards:
            for v in shard.owned:
                assert sum(1 for cone in group_tfis if v in cone) == 1, v


def test_support_is_pis_and_boundary_only():
    for aig, plan in _plans():
        for shard in plan.shards:
            owned = set(shard.owned)
            expected = set()
            for v in shard.owned:
                for fl in (aig.fanin0(v), aig.fanin1(v)):
                    fv = lit_var(fl)
                    if fv not in owned and not aig.is_const(fv):
                        expected.add(fv)
            assert set(shard.support) == expected
            for v in shard.support:
                assert aig.is_pi(v) or v in plan.boundary
            # Life stamps are pinned per support var, aligned by index.
            assert len(shard.support_life) == len(shard.support)
            for v, life in zip(shard.support, shard.support_life):
                assert life == aig.life_stamp(v)


def test_shard_pos_cover_owned_drivers():
    for aig, plan in _plans():
        pos = aig.pos
        claimed = []
        for shard in plan.shards:
            owned = set(shard.owned)
            for po_index, po_lit in shard.pos:
                assert pos[po_index] == po_lit
                assert lit_var(po_lit) in owned
                claimed.append(po_index)
        assert len(claimed) == len(set(claimed))
        # Every PO whose driver is an owned AND is claimed by its shard;
        # PI/const-driven and boundary-driven POs belong to nobody.
        owned_all = set()
        for shard in plan.shards:
            owned_all |= set(shard.owned)
        expected = {
            i for i, lit in enumerate(pos) if lit_var(lit) in owned_all
        }
        assert set(claimed) == expected


def test_owned_is_topologically_sorted():
    for aig, plan in _plans():
        for shard in plan.shards:
            keys = [(aig.level(v), v) for v in shard.owned]
            assert keys == sorted(keys)


def test_deterministic():
    for make in CIRCUITS:
        aig = make()
        a = plan_regions(aig, 4, min_nodes=1)[0]
        b = plan_regions(aig, 4, min_nodes=1)[0]
        assert a == b


class TestDegenerateFallbacks:
    def test_empty_aig(self):
        assert plan_regions(Aig(), 4)[0] is None

    def test_no_ands(self):
        aig = Aig()
        a = aig.add_pi()
        aig.add_po(a)
        aig.add_po(a ^ 1)
        assert plan_regions(aig, 2)[0] is None

    def test_single_cone(self):
        aig = random_aig(num_pis=5, num_nodes=40, num_pos=1, seed=2)
        assert plan_regions(aig, 4)[0] is None

    def test_one_shard_requested(self):
        aig = random_aig(num_pis=6, num_nodes=60, num_pos=4, seed=3)
        assert plan_regions(aig, 1)[0] is None
        assert plan_regions(aig, 0)[0] is None

    def test_more_shards_than_cones_clamps(self):
        aig = random_aig(num_pis=6, num_nodes=80, num_pos=3, seed=7)
        plan = plan_regions(aig, 64, min_nodes=1)[0]
        if plan is not None:  # clamped, never over-split
            assert plan.num_shards <= len(aig.pos)

    def test_min_nodes_floor_disables_sharding(self):
        aig = random_aig(num_pis=6, num_nodes=60, num_pos=5, seed=3)
        assert plan_regions(aig, 4, min_nodes=10 ** 6)[0] is None

    def test_min_nodes_floor_lowers_shard_count(self):
        aig = mtm_like(num_pis=12, num_nodes=400, seed=5)
        wide = plan_regions(aig, 8, min_nodes=1)[0]
        floored = plan_regions(aig, 8, min_nodes=aig.num_ands // 3)[0]
        if wide is not None and floored is not None:
            assert floored.num_shards <= min(3, wide.num_shards)

    def test_duplicate_po_drivers_share_one_cone(self):
        """POs pointing at the same driver are one cone, not two."""
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        f = aig.and_(a, b)
        aig.add_po(f)
        aig.add_po(f ^ 1)
        assert plan_regions(aig, 2)[0] is None


class TestFallbackReasons:
    """`plan_regions` names why a graph did not decompose — the signal
    the sharded driver surfaces as ``RewriteResult.shard_fallback`` and
    ``shard_fallback_total{reason}`` instead of falling back silently."""

    def test_single_shard(self):
        aig = random_aig(num_pis=6, num_nodes=60, num_pos=4, seed=3)
        assert plan_regions(aig, 1) == (None, "single_shard")

    def test_too_few_pos(self):
        aig = random_aig(num_pis=5, num_nodes=40, num_pos=1, seed=2)
        assert plan_regions(aig, 4) == (None, "too_few_pos")

    def test_no_reachable_ands(self):
        aig = Aig()
        a = aig.add_pi()
        aig.add_po(a)
        aig.add_po(a ^ 1)
        assert plan_regions(aig, 2) == (None, "no_reachable_ands")

    def test_min_nodes_floor(self):
        aig = random_aig(num_pis=6, num_nodes=60, num_pos=5, seed=3)
        assert plan_regions(aig, 4, min_nodes=10 ** 6) == \
            (None, "min_nodes_floor")

    def test_too_few_regions(self):
        # Two POs sharing one driver: one group swallows everything.
        aig = Aig()
        a, b = aig.add_pi(), aig.add_pi()
        f = aig.and_(a, b)
        aig.add_po(f)
        aig.add_po(f ^ 1)
        plan, reason = plan_regions(aig, 2)
        assert plan is None
        assert reason == "too_few_regions"

    def test_success_has_no_reason(self):
        aig = mtm_like(num_pis=12, num_nodes=250, seed=101)
        plan, reason = plan_regions(aig, 4, min_nodes=1)
        assert plan is not None
        assert reason is None


class TestSeamRotation:
    def test_rotation_deterministic(self):
        for make in CIRCUITS:
            aig = make()
            for rotation in (0, 1, 3):
                a = plan_regions(aig, 4, min_nodes=1, rotation=rotation)[0]
                b = plan_regions(aig, 4, min_nodes=1, rotation=rotation)[0]
                assert a == b
                if a is not None:
                    assert a.rotation == rotation

    def test_rotation_zero_matches_default(self):
        for make in CIRCUITS:
            aig = make()
            assert plan_regions(aig, 4, min_nodes=1)[0] == \
                plan_regions(aig, 4, min_nodes=1, rotation=0)[0]

    def test_rotation_moves_the_boundary(self):
        """The point of seam rotation: at least one corpus circuit must
        freeze a different boundary under a rotated grouping, or
        multi-pass sharding would re-freeze the same nodes forever."""
        moved = 0
        comparable = 0
        for make in CIRCUITS:
            aig = make()
            base = plan_regions(aig, 4, min_nodes=1, rotation=0)[0]
            rot = plan_regions(aig, 4, min_nodes=1, rotation=1)[0]
            if base is None or rot is None:
                continue
            comparable += 1
            if base.boundary != rot.boundary:
                moved += 1
        assert comparable
        assert moved

    def test_rotated_plans_keep_the_properties(self):
        """Rotation permutes the grouping; it must not loosen the
        Theorem-1 properties (tiling, disjointness, support closure)."""
        checked = 0
        for make in CIRCUITS:
            aig = make()
            for rotation in (1, 2):
                plan = plan_regions(aig, 4, min_nodes=1, rotation=rotation)[0]
                if plan is None:
                    continue
                checked += 1
                reachable = _reachable(aig)
                owned_all: list = []
                for shard in plan.shards:
                    owned_all.extend(shard.owned)
                assert len(owned_all) == len(set(owned_all))
                assert not set(owned_all) & plan.boundary
                assert set(owned_all) | plan.boundary == reachable
                assert plan.dangling == set(aig.ands()) - reachable
                cones = [set(shard.owned) for shard in plan.shards]
                for i, shard in enumerate(plan.shards):
                    reach_fwd = tfo(aig, shard.owned)
                    reach_bwd = tfi(aig, shard.owned)
                    for j, other in enumerate(cones):
                        if j == i:
                            continue
                        assert not reach_fwd & other, (i, j)
                        assert not reach_bwd & other, (i, j)
                for shard in plan.shards:
                    for v in shard.support:
                        assert aig.is_pi(v) or v in plan.boundary
        assert checked


class TestWorkBalance:
    def test_estimates_positive_for_every_and(self):
        for make in CIRCUITS:
            aig = make()
            work = merge_work_estimates(aig)
            ands = set(aig.ands())
            assert set(work) == ands
            assert all(w >= 1 for w in work.values())

    def test_estimates_saturate_at_max_cuts(self):
        aig = mtm_like(num_pis=12, num_nodes=400, seed=5)
        work = merge_work_estimates(aig, max_cuts=12)
        # est caps at max_cuts, so pair counts cap at max_cuts**2.
        assert max(work.values()) <= 12 * 12

    def test_shards_record_est_work(self):
        for aig, plan in _plans():
            work = merge_work_estimates(aig)
            for shard in plan.shards:
                assert shard.est_work == \
                    sum(work.get(v, 1) for v in shard.owned)
                assert shard.est_work >= len(shard.owned)


class TestCleanupRegion:
    def _dangling_fixture(self):
        """Two independent PO cones plus a live AND cone reaching no
        PO at all — the nodes every sharded pass used to skip."""
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        f = aig.and_(a, b)
        g = aig.and_(c, d)
        aig.add_po(f)
        aig.add_po(g)
        m0 = aig.and_(a, c)
        m1 = aig.and_(b, d)
        top = aig.and_(m0, m1)
        dangling = {lit_var(m0), lit_var(m1), lit_var(top)}
        return aig, dangling

    def test_plan_reports_dangling(self):
        aig, dangling = self._dangling_fixture()
        plan = plan_regions(aig, 2, min_nodes=1)[0]
        assert plan is not None
        assert plan.dangling == dangling

    def test_cleanup_region_covers_dangling_and_boundary(self):
        """Satellite contract: the cleanup worklist covers every former
        boundary and dangling node (they are no longer silently
        skipped) plus their TFI neighborhood."""
        aig, dangling = self._dangling_fixture()
        plan = plan_regions(aig, 2, min_nodes=1)[0]
        targets = set(plan.boundary) | set(plan.dangling)
        region = cleanup_region(aig, targets)
        assert targets <= region
        for v in region:
            assert aig.is_and(v) and not aig.is_dead(v)

    def test_cleanup_region_includes_direct_readers(self):
        aig = Aig()
        a, b, c = (aig.add_pi() for _ in range(3))
        f = aig.and_(a, b)
        reader = aig.and_(f, c)
        aig.add_po(reader)
        region = cleanup_region(aig, [lit_var(f)])
        assert lit_var(f) in region
        assert lit_var(reader) in region  # first reader across the seam

    def test_cleanup_region_skips_dead_targets(self):
        aig, _ = self._dangling_fixture()
        plan = plan_regions(aig, 2, min_nodes=1)[0]
        assert cleanup_region(aig, []) == set()
        # PIs are never part of the region even when targeted.
        region = cleanup_region(aig, list(plan.boundary) + list(aig.pis))
        for v in region:
            assert aig.is_and(v)
