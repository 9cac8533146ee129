"""Tests for the DACPara engine: correctness, quality, parallel stats."""

from __future__ import annotations

import pytest

from repro.aig import Aig, check, exhaustive_signatures
from repro.core import (
    DACParaRewriter,
    RewriteConfig,
    dacpara_config,
    dacpara_p1_config,
    dacpara_p2_config,
    node_dividing,
)
from repro.rewrite import SerialRewriter

from conftest import capture_cut_managers, deep_chain_circuit, random_aig


class TestNodeDividing:
    def test_buckets_by_level(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        n1 = aig.and_(a, b)          # level 1
        n2 = aig.and_(n1, c)         # level 2
        n3 = aig.and_(a, c)          # level 1
        aig.add_po(n2)
        aig.add_po(n3)
        lists = node_dividing(aig)
        assert len(lists) == 2
        assert sorted(lists[0]) == sorted([n1 >> 1, n3 >> 1])
        assert lists[1] == [n2 >> 1]

    def test_same_list_nodes_initially_unrelated(self):
        from repro.aig import related

        aig = random_aig(num_pis=6, num_nodes=60, seed=5)
        for bucket in node_dividing(aig):
            for i, x in enumerate(bucket):
                for y in bucket[i + 1 :]:
                    assert not related(aig, x, y)

    def test_empty_aig(self):
        aig = Aig()
        aig.add_pi()
        assert node_dividing(aig) == []


class TestDACParaCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_function_preserved_simulated(self, seed):
        aig = random_aig(num_pis=6, num_nodes=80, num_pos=6, seed=seed)
        sigs = exhaustive_signatures(aig)
        result = DACParaRewriter(dacpara_config(workers=8)).run(aig)
        assert exhaustive_signatures(aig) == sigs
        check(aig)
        assert result.area_after == aig.num_ands

    def test_reduces_redundant_circuit(self):
        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        f = aig.and_(aig.and_(a, b), aig.and_(c, d))
        g = aig.and_(a, aig.and_(b, aig.and_(c, d)))
        aig.add_po(f)
        aig.add_po(g)
        before = aig.num_ands
        DACParaRewriter(RewriteConfig(npn_classes="all222", workers=4)).run(aig)
        assert aig.num_ands < before
        check(aig)

    def test_p1_p2_presets_run(self):
        for config in (dacpara_p1_config(workers=4), dacpara_p2_config(workers=4)):
            aig = random_aig(num_pis=6, num_nodes=80, num_pos=5, seed=13)
            sigs = exhaustive_signatures(aig)
            result = DACParaRewriter(config).run(aig)
            assert exhaustive_signatures(aig) == sigs
            assert result.passes >= 1


class TestDACParaQuality:
    def test_quality_close_to_serial(self):
        """Paper Table 2: DACPara loses only a fraction of a percent of
        area reduction vs serial.  On our small circuits we tolerate a
        modest relative gap but insist on the same order of quality."""
        total_serial = 0
        total_dacpara = 0
        for seed in range(6):
            a1 = random_aig(num_pis=7, num_nodes=150, num_pos=6, seed=seed)
            a2 = a1.copy()
            total_serial += SerialRewriter().run(a1).area_reduction
            total_dacpara += DACParaRewriter(dacpara_config(workers=8)).run(
                a2
            ).area_reduction
        assert total_serial > 0
        assert total_dacpara >= 0.7 * total_serial

    def test_delay_essentially_unchanged(self):
        for seed in range(4):
            aig = random_aig(num_pis=7, num_nodes=120, num_pos=6, seed=seed)
            result = DACParaRewriter(dacpara_config(workers=8)).run(aig)
            assert result.delay_after <= result.delay_before + 1


class TestDACParaParallelism:
    def test_eval_stage_has_no_conflicts(self):
        """The lock-free evaluation operator can never conflict."""
        aig = random_aig(num_pis=6, num_nodes=120, num_pos=6, seed=3)
        rewriter = DACParaRewriter(dacpara_config(workers=8))
        rewriter.run(aig)
        eval_stages = [s for s in rewriter.last_stats.stages if s.name == "eval"]
        assert eval_stages
        assert all(s.conflicts == 0 for s in eval_stages)

    def test_parallel_speedup_in_simulated_time(self):
        a1 = random_aig(num_pis=7, num_nodes=200, num_pos=8, seed=21)
        a8 = a1.copy()
        r1 = DACParaRewriter(dacpara_config(workers=1)).run(a1)
        r8 = DACParaRewriter(dacpara_config(workers=8)).run(a8)
        assert r8.makespan_units < r1.makespan_units
        # Same decisions regardless of worker count (determinism of the
        # barrier-synchronized stages).
        assert r8.area_after == r1.area_after

    def test_stage_accounting(self):
        aig = random_aig(num_pis=6, num_nodes=100, num_pos=5, seed=9)
        result = DACParaRewriter(dacpara_config(workers=4)).run(aig)
        assert set(result.stage_units) <= {"enum", "eval", "replace"}
        assert result.stage_units.get("eval", 0) > result.stage_units.get("enum", 0)
        assert result.work_units == sum(result.stage_units.values())


class TestLevelMaintenanceCost:
    @pytest.mark.parametrize("stages", (20, 40))
    def test_level_updates_linear_in_area(self, stages):
        """Lazy levels (DESIGN §4d): a level-ordered run settles each
        node about once, whatever the depth.  Eager propagation wrote
        8.7x / 18x the node count on these two graphs (112 / 220
        levels); the count repeats exactly on any machine."""
        from repro.obs.observer import TracingObserver

        aig = deep_chain_circuit(stages)
        obs = TracingObserver()
        result = DACParaRewriter(dacpara_config(), observer=obs).run(aig)
        assert result.replacements >= 0.05 * result.area_before
        assert 0 < aig.level_updates <= 2 * result.area_before
        counters = obs.metrics.snapshot()["counters"]
        assert counters["level_updates_total"] == aig.level_updates
        check(aig)


class TestEnumKernelCalls:
    @pytest.mark.parametrize("stages,tasks", ((20, 1734), (40, 3301)))
    def test_kernel_calls_per_enum_stage(self, stages, tasks, monkeypatch):
        """Closure waves (DESIGN §4c): a level's cold cut sets merge in
        one kernel call per dependency wave.  One call per cold node
        made it 3.96 / 3.85 calls per enum stage on these two graphs
        (443 / 112 and 847 / 220, three quarters of them single-task)
        for the same merge tasks; the counts repeat exactly on any
        machine."""
        from repro.cuts import CutManager
        from repro.obs.observer import TracingObserver

        managers, merged = capture_cut_managers(monkeypatch), []
        real_core = CutManager._columnar_core
        monkeypatch.setattr(
            CutManager, "_columnar_core",
            lambda self, roots, *a: merged.append(len(roots))
            or real_core(self, roots, *a))
        aig = deep_chain_circuit(stages)
        obs = TracingObserver()
        rewriter = DACParaRewriter(dacpara_config(workers=1), observer=obs)
        result = rewriter.run(aig)
        assert result.replacements >= 0.05 * result.area_before
        enum_runs = sum(s.name == "enum" for s in rewriter.last_stats.stages)
        cutman, = managers
        assert 0 < cutman.kernel_calls <= 2.5 * enum_runs
        assert cutman.kernel_calls == len(merged) and sum(merged) == tasks
        counters = obs.metrics.snapshot()["counters"]
        assert counters["enum_kernel_calls_total"] == cutman.kernel_calls


class TestPerRootResolves:
    @pytest.mark.parametrize("circuit", ("mtm", "deep_chain"))
    def test_per_root_resolves_counts_the_non_wave0_roots(self, circuit,
                                                          monkeypatch):
        """The cut-cache index (DESIGN §4g): an enum stage walks per root
        only the roots its plan does not make wave-0 tasks over stable
        inputs — closure roots, order-dependent roots and cache answers;
        every other root is planned, merged and installed in vector
        passes.  The count equals the per-root planner's on every stage."""
        import copy

        from reference import reference_plan
        from repro.bench import mtm_like
        from repro.cuts import CutManager
        from repro.obs.observer import TracingObserver

        want = []
        real_plan = CutManager.plan_closures

        def plan(self, roots):
            ref = reference_plan(self, roots)
            want.append(sum(1 for r in roots if not self.aig.is_dead(r)
                            and (ref.get(r) is None or ref[r][0] > 0)))
            return real_plan(self, roots)

        monkeypatch.setattr(CutManager, "plan_closures", plan)
        managers = capture_cut_managers(monkeypatch)
        base = (mtm_like(24, 2500, seed=7) if circuit == "mtm"
                else deep_chain_circuit())
        obs = TracingObserver()
        DACParaRewriter(dacpara_config(workers=8), observer=obs).run(
            copy.deepcopy(base))
        cutman = managers[0]
        assert cutman.per_root_resolves == sum(want) > 0
        assert type(cutman.per_root_resolves) is int  # serializes as JSON
        counters = obs.metrics.snapshot()["counters"]
        assert counters["enum_per_root_resolves_total"] == sum(want)
