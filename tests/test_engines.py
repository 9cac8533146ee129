"""Tests for the ICCAD'18 fused-lock model and the GPU static model."""

from __future__ import annotations

import pytest

from repro.aig import Aig, check, exhaustive_signatures
from repro.core import RewriteConfig, gpu_config, iccad18_config
from repro.rewrite import LockFusedRewriter, SerialRewriter, StaticRewriter

from conftest import random_aig


class TestLockFused:
    @pytest.mark.parametrize("seed", range(6))
    def test_function_preserved(self, seed):
        aig = random_aig(num_pis=6, num_nodes=80, num_pos=6, seed=seed)
        sigs = exhaustive_signatures(aig)
        result = LockFusedRewriter(iccad18_config(workers=8)).run(aig)
        assert exhaustive_signatures(aig) == sigs
        check(aig)
        assert result.engine == "iccad18"

    def test_quality_matches_serial(self):
        """The fused operator sees a consistent graph per activity, so
        its quality should track the serial engine closely."""
        for seed in range(4):
            a1 = random_aig(num_pis=7, num_nodes=150, num_pos=6, seed=seed)
            a2 = a1.copy()
            rs = SerialRewriter().run(a1)
            rf = LockFusedRewriter(iccad18_config(workers=8)).run(a2)
            assert rf.area_reduction >= 0.7 * rs.area_reduction

    def test_parallel_faster_than_serial_in_sim_time(self):
        a1 = random_aig(num_pis=7, num_nodes=200, num_pos=8, seed=31)
        a8 = a1.copy()
        r1 = LockFusedRewriter(iccad18_config(workers=1)).run(a1)
        r8 = LockFusedRewriter(iccad18_config(workers=8)).run(a8)
        assert r8.makespan_units < r1.makespan_units


class TestStaticGpu:
    @pytest.mark.parametrize("variant", ["dac22", "tcad23"])
    @pytest.mark.parametrize("seed", range(4))
    def test_function_preserved(self, variant, seed):
        aig = random_aig(num_pis=6, num_nodes=80, num_pos=6, seed=seed)
        sigs = exhaustive_signatures(aig)
        result = StaticRewriter(gpu_config(workers=64), variant=variant).run(aig)
        assert exhaustive_signatures(aig) == sigs
        check(aig)
        assert result.conflicts == 0  # lock-free by construction

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            StaticRewriter(variant="tpu25")

    def test_static_quality_not_better_than_dynamic_same_config(self):
        """The paper's central quality claim: *static* global
        information loses area reduction relative to dynamic
        re-validation.  Isolate the mechanism by running both engines
        under an identical configuration (the paper's Table 3 instead
        compares different class sets, which confounds this on small
        circuits).  Aggregated over several circuits."""
        from repro.core import DACParaRewriter, RewriteConfig

        shared = RewriteConfig(
            npn_classes="all222", max_cuts=8, max_structs=5, passes=2, workers=64
        )
        total_static = 0
        total_dynamic = 0
        for seed in range(6):
            a1 = random_aig(num_pis=7, num_nodes=200, num_pos=6, seed=seed)
            a2 = a1.copy()
            total_static += StaticRewriter(shared, variant="dac22").run(
                a1
            ).area_reduction
            total_dynamic += DACParaRewriter(shared).run(a2).area_reduction
        assert total_dynamic >= total_static

    def test_massive_parallelism_tiny_makespan(self):
        a = random_aig(num_pis=7, num_nodes=200, num_pos=8, seed=17)
        result = StaticRewriter(gpu_config(workers=4096)).run(a)
        # evaluation is perfectly parallel; only the serial CPU phase
        # and per-activity granularity remain.
        assert result.makespan_units < result.work_units

    def test_stale_gain_applied_anyway(self):
        """A static-flow fingerprint: replacements are applied without
        re-checking gain, so validation_failures counts only dead cuts."""
        aig = random_aig(num_pis=7, num_nodes=150, num_pos=6, seed=5)
        result = StaticRewriter(gpu_config(workers=64)).run(aig)
        assert result.replacements >= 0
        assert result.validation_failures >= 0


class TestValidationModule:
    def test_fig3_scenario_rejected_or_rematched(self):
        """Reconstruct the paper's Fig. 3: a stored cut whose leaf is
        deleted and the id reused must not pass validation unchecked."""
        from repro.core import RewriteConfig, validate_candidate
        from repro.core.validation import ValidationStats
        from repro.cuts import CutManager
        from repro.library import get_library
        from repro.rewrite import find_best_candidate

        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        shared = aig.and_(a, b)
        mid = aig.and_(shared, c)
        top = aig.and_(mid, d)
        aig.add_po(top)
        aig.add_po(shared)
        config = RewriteConfig(npn_classes="all222", zero_gain=True)
        cutman = CutManager(aig)
        cand = find_best_candidate(
            aig, top >> 1, cutman, get_library(), config
        )
        if cand is None:
            pytest.skip("no candidate on this toy circuit")
        # Invalidate a leaf: kill `mid` (if it is a leaf of the stored
        # cut) by replacing it, freeing its id.
        victim = None
        for leaf in cand.cut.leaves:
            if aig.is_and(leaf):
                victim = leaf
                break
        if victim is None:
            pytest.skip("stored cut has only PI leaves")
        aig.replace(victim, a)
        reborn = aig.and_(c, d)  # likely reuses the freed id
        stats = ValidationStats()
        refreshed = validate_candidate(aig, cutman, cand, config, stats=stats)
        # Either rejected, or re-matched through the re-enumeration path;
        # never silently accepted via the fast path.
        assert stats.fast_path == 0
        if refreshed is not None:
            assert stats.matched_after_reuse == 1

    def test_valid_candidate_fast_path(self):
        from repro.core import RewriteConfig, validate_candidate
        from repro.core.validation import ValidationStats
        from repro.cuts import CutManager
        from repro.library import get_library
        from repro.rewrite import find_best_candidate

        aig = Aig()
        a, b, c, d = (aig.add_pi() for _ in range(4))
        f = aig.and_(aig.and_(a, b), aig.and_(c, d))
        g = aig.and_(a, aig.and_(b, aig.and_(c, d)))
        aig.add_po(f)
        aig.add_po(g)
        config = RewriteConfig(npn_classes="all222")
        cutman = CutManager(aig)
        cand = find_best_candidate(aig, g >> 1, cutman, get_library(), config)
        assert cand is not None
        stats = ValidationStats()
        refreshed = validate_candidate(aig, cutman, cand, config, stats=stats)
        assert refreshed is not None
        assert stats.fast_path == 1
        assert refreshed.gain == cand.gain
