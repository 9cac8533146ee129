"""Process-pool executor, AIG snapshots, and the vectorized kernels.

The headline guarantee under test: ``executor="process"`` is
*byte-identical* to ``"simulated"`` — same RewriteResult, same final
graph, same stats, same metrics — because evaluation costs are
data-driven and the fan-out merge replays them through the simulated
scheduler.
"""

from __future__ import annotations

import copy
import pickle
import random
import subprocess
import sys
import warnings

import pytest

from repro.aig import AigSnapshot
from repro.bench import mtm_like, sin_like, voter_like
from repro.config import RewriteConfig, dacpara_config
from repro.core import DACParaRewriter
from repro.core.operators import StageContext
from repro.cuts import CutManager
from repro.errors import ConfigError
from repro.galois import (
    ProcessExecutor,
    SimulatedExecutor,
    make_executor,
    shipper,
)
from repro.galois.procpool import MIN_FANOUT, default_jobs
from repro.library import get_library
from repro.npn import (
    canon_lut_ready,
    ensure_canon_lut,
    npn_canon,
    npn_canon_batch,
    npn_canon_exhaustive,
)
from repro.obs.observer import TracingObserver
from repro.rewrite.base import best_candidate_over_cuts, find_best_candidate

from conftest import random_aig
from reference import make_eval_operator, reference_rewrite


def aig_fingerprint(aig):
    """Exact structural identity: every live AND with its fanins."""
    nodes = tuple(
        sorted(
            (v, aig.fanin0(v), aig.fanin1(v))
            for v in range(aig.size)
            if aig.is_and(v)
        )
    )
    return (nodes, tuple(aig.pis), tuple(aig.pos))


def result_fingerprint(r):
    return (
        r.area_before, r.area_after, r.delay_before, r.delay_after,
        r.replacements, r.attempted, r.validation_failures,
        r.work_units, r.makespan_units, r.conflicts, r.aborted_units,
        r.stage_units, r.passes,
    )


class TestAigSnapshot:
    def test_read_api_matches_aig(self):
        aig = random_aig(num_pis=6, num_nodes=120, num_pos=5, seed=11)
        snap = AigSnapshot.capture(aig)
        assert snap.size == aig.size
        assert snap.num_ands == aig.num_ands
        assert snap.num_pis == aig.num_pis
        assert tuple(snap.pis) == tuple(aig.pis)
        assert tuple(snap.pos) == tuple(aig.pos)
        for v in range(aig.size):
            assert snap.is_dead(v) == aig.is_dead(v)
            assert snap.is_and(v) == aig.is_and(v)
            assert snap.is_pi(v) == aig.is_pi(v)
            if aig.is_and(v):
                assert snap.fanin0(v) == aig.fanin0(v)
                assert snap.fanin1(v) == aig.fanin1(v)
                assert snap.fanins(v) == aig.fanins(v)
            if not aig.is_dead(v):
                assert snap.nref(v) == aig.nref(v)
                assert snap.level(v) == aig.level(v)
                assert snap.stamp(v) == aig.stamp(v)
                assert snap.life_stamp(v) == aig.life_stamp(v)

    def test_strash_probe_matches_aig(self):
        aig = random_aig(num_pis=6, num_nodes=120, num_pos=5, seed=12)
        snap = AigSnapshot.capture(aig)
        rng = random.Random(5)
        for _ in range(300):
            a = rng.randrange(2 * aig.size)
            b = rng.randrange(2 * aig.size)
            assert snap.has_and(a, b) == aig.has_and(a, b)

    def test_pickle_round_trip(self):
        aig = random_aig(num_pis=6, num_nodes=80, num_pos=4, seed=13)
        snap = AigSnapshot.capture(aig)
        snap.has_and(2, 4)  # force the lazy strash, excluded from pickling
        clone = pickle.loads(pickle.dumps(snap))
        assert aig_fingerprint_snapshot(clone) == aig_fingerprint_snapshot(snap)
        rng = random.Random(6)
        for _ in range(100):
            a = rng.randrange(2 * aig.size)
            b = rng.randrange(2 * aig.size)
            assert clone.has_and(a, b) == snap.has_and(a, b)

    def test_candidate_search_identical_on_snapshot(self):
        aig = mtm_like(num_pis=16, num_nodes=300, seed=2)
        config = dacpara_config()
        cutman = CutManager(aig, k=4, max_cuts=12)
        library = get_library()
        snap = AigSnapshot.capture(aig)
        for root in aig.topo_ands():
            cuts = tuple(cutman.fresh_cuts(root))
            live = find_best_candidate(aig, root, cutman, library, config)
            snapped = best_candidate_over_cuts(
                snap, root, cuts, library, config
            )
            assert (live is None) == (snapped is None)
            if live is not None:
                assert live.gain == snapped.gain
                assert live.structure == snapped.structure
                assert live.transform == snapped.transform
                assert live.cut.leaves == snapped.cut.leaves


def aig_fingerprint_snapshot(snap):
    nodes = tuple(
        sorted(
            (v, snap.fanin0(v), snap.fanin1(v))
            for v in range(snap.size)
            if snap.is_and(v)
        )
    )
    return (nodes, tuple(snap.pis), tuple(snap.pos))


class TestCrossExecutorEquivalence:
    CIRCUITS = [
        lambda: mtm_like(num_pis=24, num_nodes=600, seed=0),
        lambda: mtm_like(num_pis=20, num_nodes=500, seed=5),
        lambda: sin_like(width=8),
        lambda: voter_like(num_inputs=31),
    ]

    def _run(self, base, kind, workers=8):
        aig = copy.deepcopy(base)
        engine = DACParaRewriter(
            config=dacpara_config(workers=workers).with_executor(kind, 2)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a silent pool fallback is a bug
            result = engine.run(aig)
        return result, aig, engine

    @pytest.mark.parametrize("idx", range(len(CIRCUITS)))
    def test_process_byte_identical_to_simulated(self, idx):
        base = self.CIRCUITS[idx]()
        r_sim, a_sim, e_sim = self._run(base, "simulated")
        r_proc, a_proc, e_proc = self._run(base, "process")
        assert result_fingerprint(r_sim) == result_fingerprint(r_proc)
        assert aig_fingerprint(a_sim) == aig_fingerprint(a_proc)
        sim_stages = e_sim.last_stats.stages
        proc_stages = e_proc.last_stats.stages
        assert len(sim_stages) == len(proc_stages)
        for a, b in zip(sim_stages, proc_stages):
            assert (a.name, a.activities, a.committed, a.conflicts,
                    a.useful_units, a.aborted_units, a.start_time,
                    a.end_time) == \
                   (b.name, b.activities, b.committed, b.conflicts,
                    b.useful_units, b.aborted_units, b.start_time,
                    b.end_time)

    def test_attempted_counts_every_worklist(self):
        # Regression: attempted used to report the last worklist only
        # (PrepInfo is swapped per round).  Every replacement and every
        # validation failure started as an evaluated root, and every
        # live node of the first pass is evaluated once.
        base = mtm_like(num_pis=24, num_nodes=600, seed=0)
        r_sim, _, _ = self._run(base, "simulated")
        r_proc, _, _ = self._run(base, "process")
        assert r_sim.replacements > 0 and r_sim.delay_before > 1
        assert r_sim.attempted >= r_sim.replacements + r_sim.validation_failures
        assert r_sim.attempted >= r_sim.area_after
        assert r_sim.attempted == r_proc.attempted

    def test_serial_same_quality_and_equivalent_graph(self):
        from repro.sat import check_equivalence_auto

        base = mtm_like(num_pis=24, num_nodes=600, seed=0)
        r_sim, a_sim, _ = self._run(base, "simulated")
        r_ser, a_ser, _ = self._run(base, "simulated", workers=1)
        # Quality is worker-count-invariant; the exact node numbering is
        # not (1 worker commits in a different interleaving), so the
        # graphs are equivalent but not id-identical.
        assert (r_sim.area_after, r_sim.delay_after, r_sim.replacements) == \
               (r_ser.area_after, r_ser.delay_after, r_ser.replacements)
        assert check_equivalence_auto(a_sim, a_ser).equivalent

    def test_serial_byte_identical_to_one_worker_simulated(self):
        base = mtm_like(num_pis=24, num_nodes=600, seed=0)
        r_sim, a_sim, _ = self._run(base, "simulated", workers=1)
        r_ser, a_ser, _ = self._run(base, "simulated", workers=1)
        assert result_fingerprint(r_sim) == result_fingerprint(r_ser)
        assert aig_fingerprint(a_sim) == aig_fingerprint(a_ser)

    def test_metric_parity(self):
        base = mtm_like(num_pis=24, num_nodes=600, seed=1)

        def run(kind):
            aig = copy.deepcopy(base)
            obs = TracingObserver()
            engine = DACParaRewriter(
                config=dacpara_config(workers=8).with_executor(kind, 2),
                observer=obs,
            )
            engine.run(aig)
            return obs.metrics.snapshot()

        snap_sim = run("simulated")
        snap_proc = run("process")
        # The truth-table expand memo serves only the scalar oracle;
        # everything data-driven must match.
        memo_counters = {
            "cut_tt_cache_hits_total", "cut_tt_cache_misses_total",
            "cut_expand_cache_evictions_total",
        }
        proc_only_counters = (
            "snapshot_bytes_shipped_total",
            "fanout_payload_bytes_total",
            "worker_snapshot_cache_",
        )

        def split(counters):
            keep, extra = {}, {}
            for key, value in counters.items():
                name = key.split("{")[0]
                if name in memo_counters or name.startswith(proc_only_counters):
                    extra[key] = value
                else:
                    keep[key] = value
            return keep, extra

        sim_keep, sim_extra = split(snap_sim["counters"])
        proc_keep, proc_extra = split(snap_proc["counters"])
        # One kernel invocation per wave in-process, per chunk under the
        # pool's fan-out: both count, the counts differ (``batch_shape``).
        assert sim_keep.pop("enum_kernel_calls_total") > 0
        assert proc_keep.pop("enum_kernel_calls_total") > 0
        assert sim_keep == proc_keep
        # The simulated run must not emit any process-only counters.
        assert all(k.split("{")[0] in memo_counters for k in sim_extra)
        proc_only = {
            "eval_fanout_wall_seconds", "enum_fanout_wall_seconds",
            "snapshot_bytes", "snapshot_delta_ratio",
            "chunk_wall_seconds",  # wall-clock telemetry: physical only
        }
        # Batch-engine telemetry both engines emit but whose values
        # legitimately differ: kernel seconds are wall-clock, and the
        # batch size is one whole worklist in-process versus one chunk
        # per observation under the pool's fan-out.
        batch_shape = {
            "eval_kernel_seconds", "eval_batch_size",
            "enum_kernel_seconds", "enum_batch_size",
        }
        shared = set(snap_sim["histograms"]) & set(snap_proc["histograms"])
        assert set(snap_sim["histograms"]) - set(snap_proc["histograms"]) == set()
        extras = set(snap_proc["histograms"]) - set(snap_sim["histograms"])
        assert {e.split("{")[0] for e in extras} <= proc_only
        for name in shared:
            if name.split("{")[0] in batch_shape:
                continue
            assert snap_sim["histograms"][name] == snap_proc["histograms"][name]


class TestProcessExecutor:
    def test_small_worklist_stays_in_parent(self):
        aig = random_aig(num_pis=6, num_nodes=60, num_pos=4, seed=3)
        live = [v for v in aig.topo_ands()][: MIN_FANOUT - 1]
        cutman = CutManager(aig, k=4, max_cuts=12)
        for root in live:
            cutman.fresh_cuts(root)
        ctx = StageContext(
            aig=aig, cutman=cutman, library=get_library(),
            config=dacpara_config(),
        )
        ex = ProcessExecutor(4, jobs=2)
        try:
            ex.run_eval("eval", live, ctx)
            assert ex.snapshot_bytes_total == 0  # no fan-out happened
            assert ex._pool is None  # pool never even created
        finally:
            ex.close()

    def test_in_parent_fallback_matches_eval_operator(self):
        aig = mtm_like(num_pis=16, num_nodes=200, seed=8)
        live = aig.topo_ands()
        config = dacpara_config(workers=4)

        def eval_stage(executor_factory, native):
            a = copy.deepcopy(aig)
            cutman = CutManager(a, k=4, max_cuts=12)
            for root in a.topo_ands():
                cutman.fresh_cuts(root)
            ctx = StageContext(
                aig=a, cutman=cutman, library=get_library(), config=config
            )
            ex = executor_factory()
            try:
                if native:
                    stage = ex.run_eval("eval", a.topo_ands(), ctx)
                else:
                    stage = ex.run("eval", a.topo_ands(), make_eval_operator(ctx))
            finally:
                ex.close()
            stored = {
                v: ctx.prep_info.get(v)
                for v in a.topo_ands()
                if ctx.prep_info.get(v) is not None
            }
            return stage, {v: (c.gain, c.canon_tt) for v, c in stored.items()}

        def broken_pool():
            ex = ProcessExecutor(4, jobs=2)
            ex._pool_broken = True  # force the in-parent path
            return ex

        s_sim, cand_sim = eval_stage(lambda: SimulatedExecutor(4), native=False)
        s_par, cand_par = eval_stage(broken_pool, native=True)
        assert cand_sim == cand_par
        assert (s_sim.useful_units, s_sim.end_time) == \
               (s_par.useful_units, s_par.end_time)

    def test_jobs_validation_and_default(self):
        assert default_jobs() >= 1
        ex = ProcessExecutor(2)
        assert ex.jobs == default_jobs()
        ex.close()
        with pytest.raises(ValueError):
            ProcessExecutor(2, jobs=0)

    def test_factory_and_close_idempotent(self):
        ex = make_executor("process", 4, jobs=1)
        assert isinstance(ex, ProcessExecutor)
        ex.close()
        ex.close()

    def test_custom_library_uses_generic_path(self):
        # Pool workers rebuild the lookup via get_library(), so a custom
        # library keeps eval scoring in-process against ctx.library —
        # loudly, once per run — while enum (which needs no library)
        # still fans out.
        import dataclasses

        from repro.library import StructureLibrary

        aig = mtm_like(num_pis=12, num_nodes=250, seed=9)
        library = StructureLibrary()
        config = dacpara_config(workers=5)

        def run(kind):
            a = copy.deepcopy(aig)
            obs = TracingObserver()
            engine = DACParaRewriter(
                config=config.with_executor(kind, 2), library=library,
                observer=obs,
            )
            result = engine.run(a)
            return result, a, engine, obs.metrics.snapshot()["counters"]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r_proc, a_proc, e_proc, counters = run("process")
        msgs = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
        assert len(msgs) == 1 and "default structure library" in msgs[0]
        shipped = {
            stage: sum(v for k, v in counters.items()
                       if k.startswith("snapshot_bytes_shipped_total")
                       and f"stage={stage}" in k)
            for stage in ("enum", "eval")
        }
        assert shipped["enum"] > 0 and shipped["eval"] == 0

        r_sim, a_sim, e_sim, _ = run("simulated")
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        assert [dataclasses.replace(s, wall_seconds=0.0)
                for s in e_proc.last_stats.stages] == \
               [dataclasses.replace(s, wall_seconds=0.0)
                for s in e_sim.last_stats.stages]
        a_ref = copy.deepcopy(aig)
        r_ref = reference_rewrite(a_ref, config, 5, library=library)
        assert result_fingerprint(r_proc) == result_fingerprint(r_ref)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_ref)

        def eval_stage_prep(executor):
            cutman = CutManager(aig, k=4, max_cuts=12)
            live = aig.topo_ands()
            for root in live:
                cutman.fresh_cuts(root)
            ctx = StageContext(
                aig=aig, cutman=cutman, library=library, config=config)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    executor.run_eval("eval", live, ctx)
            finally:
                executor.close()
            return {v: ctx.prep_info.get(v) for v in live}

        assert eval_stage_prep(ProcessExecutor(5, jobs=2)) == \
            eval_stage_prep(SimulatedExecutor(5))


class TestEnumFanout:
    """Process-parallel cut enumeration: byte-identity under every
    shipping configuration, plus the worker-cache refill path."""

    BASE = staticmethod(lambda: mtm_like(num_pis=20, num_nodes=500, seed=5))

    def _run_engine(self, base, kind, config=None):
        aig = copy.deepcopy(base)
        obs = TracingObserver()
        engine = DACParaRewriter(
            config=(config or dacpara_config(workers=8)).with_executor(kind, 2),
            observer=obs,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = engine.run(aig)
        return result, aig, obs.metrics.snapshot()

    @staticmethod
    def _shipped_by_kind(metrics):
        out = {}
        for key, value in metrics["counters"].items():
            if key.startswith("snapshot_bytes_shipped_total"):
                kind = key.split("kind=")[1].split(",")[0].rstrip("}")
                out[kind] = out.get(kind, 0) + value
        return out

    def test_delta_too_large_always_recaptures(self, monkeypatch):
        monkeypatch.setattr(shipper, "DELTA_MAX_FRACTION", 0.0)
        base = self.BASE()
        r_sim, a_sim, _ = self._run_engine(base, "simulated")
        r_proc, a_proc, metrics = self._run_engine(base, "process")
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        shipped = self._shipped_by_kind(metrics)
        # fraction 0.0 forbids deltas: every mutated stage recaptures in
        # full, unmutated stages still reuse the worker-cached base.
        assert shipped.get("delta", 0) == 0
        assert shipped.get("full", 0) > 0

    def test_default_run_uses_deltas(self):
        _, _, metrics = self._run_engine(self.BASE(), "process")
        shipped = self._shipped_by_kind(metrics)
        assert shipped.get("delta", 0) > 0
        assert any(
            k.startswith("snapshot_delta_ratio")
            for k in metrics["histograms"]
        )

    def test_worker_cache_refill_after_pool_restart(self):
        aig = mtm_like(num_pis=16, num_nodes=300, seed=21)
        config = dacpara_config(workers=4)

        def prepped_ctx(a):
            cutman = CutManager(a, k=4, max_cuts=12)
            for root in a.topo_ands():
                cutman.fresh_cuts(root)
            return StageContext(
                aig=a, cutman=cutman, library=get_library(), config=config
            )

        a_proc = copy.deepcopy(aig)
        ctx = prepped_ctx(a_proc)
        ex = ProcessExecutor(4, jobs=2)
        try:
            ex.run_eval("eval", a_proc.topo_ands(), ctx)
            assert ex.cache_refills == 0
            # Kill the pool: the replacement's fresh workers have never
            # seen this run's base snapshot, so the "cached" refs the
            # shipper sends next must miss and trigger refills.
            ex._pool.shutdown(wait=True, cancel_futures=True)
            ex._pool = None
            ex.run_eval("eval", a_proc.topo_ands(), ctx)
            assert ex.cache_refills > 0
            assert ex.shipped_bytes.get("refill", 0) > 0
            # A refill is neither a retry nor a fallback.
            assert ex.chunk_retries == 0 and ex.chunk_fallbacks == 0
        finally:
            ex.close()
        # The refilled pass still computes the exact same candidates.
        a_ref = copy.deepcopy(aig)
        ctx_ref = prepped_ctx(a_ref)
        sim = SimulatedExecutor(4)
        sim.run("eval", a_ref.topo_ands(), make_eval_operator(ctx_ref))
        got = {v: ctx.prep_info.get(v) for v in a_proc.topo_ands()}
        want = {v: ctx_ref.prep_info.get(v) for v in a_ref.topo_ands()}
        assert {v: c and (c.gain, c.canon_tt) for v, c in got.items()} == \
               {v: c and (c.gain, c.canon_tt) for v, c in want.items()}


def test_process_runs_never_load_shared_memory():
    """One base hand-off: a whole process run — per-level and sharded —
    finishes without ``multiprocessing.shared_memory`` ever imported."""
    script = """
import dataclasses, sys, warnings
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core import DACParaRewriter
warnings.simplefilter("error")  # a silent pool fallback is a bug
for shards in (1, 2):
    config = dataclasses.replace(
        dacpara_config(workers=4), executor="process", jobs=2,
        shards=shards, shard_min_nodes=1)
    result = DACParaRewriter(config=config).run(
        mtm_like(num_pis=12, num_nodes=250, seed=404))
    assert result.replacements > 0 and result.shards == (shards > 1) * shards
assert "multiprocessing.shared_memory" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr


class TestFallbackWarning:
    """The pool-unavailable warning is scoped per run: two runs in one
    interpreter each warn once, repeat failures in a run stay quiet."""

    def test_warns_once_per_run(self, monkeypatch):
        import concurrent.futures

        def boom(*args, **kwargs):
            raise OSError("no process support here")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", boom
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            ex1 = ProcessExecutor(4, jobs=2)
            try:
                assert ex1._ensure_pool() is None
                assert ex1._ensure_pool() is None  # no second warning
            finally:
                ex1.close()
            ex2 = ProcessExecutor(4, jobs=2)
            try:
                assert ex2._ensure_pool() is None
            finally:
                ex2.close()
        msgs = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
        assert len(msgs) == 2  # one per run, not one per interpreter
        assert msgs[0] != msgs[1]  # run ids keep the registry honest
        assert all("computing in-parent" in m for m in msgs)


class TestConfigExecutor:
    def test_executor_field_validated(self):
        with pytest.raises(ConfigError):
            RewriteConfig(executor="gpu")
        with pytest.raises(ConfigError):
            RewriteConfig(jobs=0)
        cfg = RewriteConfig(executor="process", jobs=3)
        assert cfg.executor == "process"

    def test_with_executor_and_engine_pickup(self):
        cfg = dacpara_config().with_executor("process", jobs=2)
        engine = DACParaRewriter(config=cfg)
        assert (engine.config.executor, engine.config.jobs) == ("process", 2)


class TestNpnLut:
    def test_lut_matches_exhaustive_on_random_functions(self):
        ensure_canon_lut()
        assert canon_lut_ready()
        rng = random.Random(20240805)
        for _ in range(2000):
            tt = rng.randrange(1 << 16)
            canon_fast, wit_fast = npn_canon(tt)
            canon_ref, wit_ref = npn_canon_exhaustive(tt)
            assert canon_fast == canon_ref
            assert wit_fast == wit_ref  # identical tie-break, not just class

    def test_batch_agrees_with_scalar(self):
        import numpy as np

        tts = np.arange(0, 65536, 97, dtype=np.uint32)
        batched = npn_canon_batch(tts)
        for tt, canon in zip(tts.tolist(), batched.tolist()):
            assert npn_canon(tt)[0] == canon
