"""The shard pool, the fanin snapshot it ships, and the vectorized kernels.

The headline guarantees under test: ``executor="process"`` is
*byte-identical* to ``"simulated"`` — same RewriteResult, same final
graph, same stats, same metrics — because the level pipeline runs on
the simulated scheduler either way, and the pool only ever rewrites
whole shards (:class:`~repro.galois.procpool.ProcessExecutor`), whose
payloads are pure functions of the graph and the shard.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.aig import AigSnapshot
from repro.bench import mem_ctrl_like, mtm_like, sin_like
from repro.config import RewriteConfig, dacpara_config, iccad18_config
from repro.core import DACParaRewriter
from repro.core.partition import plan_regions
from repro.core.shards import rewrite_shard, splice_shard
from repro.core.validation import ShardMergeStats
from repro.errors import AigError, ConfigError
from repro.galois import (
    ProcessExecutor,
    SimulatedExecutor,
    make_executor,
    shipper,
)
from repro.galois.procpool import default_jobs
from repro.npn import (
    canon_lut_ready,
    ensure_canon_lut,
    npn_canon,
    npn_canon_batch,
    npn_canon_exhaustive,
)
from repro.obs.observer import TracingObserver
from repro.rewrite import LockFusedRewriter

from conftest import random_aig
from reference import reference_rewrite


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
        assert snap.epoch == aig.mutation_epoch
        for v in range(aig.size):
            if aig.is_and(v):
                assert snap.fanin0(v) == aig.fanin0(v)
                assert snap.fanin1(v) == aig.fanin1(v)
            else:
                with pytest.raises(AigError):
                    snap.fanin0(v)

    def test_pickle_round_trip(self):
        aig = random_aig(num_pis=6, num_nodes=80, num_pos=4, seed=13)
        snap = AigSnapshot.capture(aig)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.epoch == snap.epoch
        for field in ("_kind", "_fanin0", "_fanin1"):
            assert np.array_equal(getattr(clone, field), getattr(snap, field))

    def test_hand_off_ships_fanins_and_rebuilds_every_shard(self):
        """The pickled state is the kind and fanin columns alone, and a
        base patched past a splice hands every shard of a fresh plan the
        payload the live graph would."""
        aig = mtm_like(num_pis=24, num_nodes=600, seed=0)
        config = dataclasses.replace(dacpara_config(), shards=4,
                                     shard_min_nodes=1)
        base = AigSnapshot.capture(aig)
        state = pickle.loads(pickle.dumps(base)).__getstate__()
        columns = [x for x in state if isinstance(x, np.ndarray)]
        assert len(columns) == 3
        for column, field in zip(columns, ("_kind", "_fanin0", "_fanin1")):
            assert column.tolist() == list(getattr(aig, field))

        plan, _ = plan_regions(aig, 4, 1, rotation=0)
        stats = ShardMergeStats()
        assert sum(splice_shard(aig, shard, rewrite_shard(aig, shard, config),
                                stats) for shard in plan.shards) > 0
        patched = base.apply_delta(base.delta_since(aig))
        plan, _ = plan_regions(aig, 4, 1, rotation=1)
        assert plan.num_shards >= 2

        def payload(src, shard):
            out = rewrite_shard(src, shard, config)
            del out["wall_seconds"]
            return out

        for shard in plan.shards:
            assert payload(patched, shard) == payload(aig, shard)


class TestCrossExecutorEquivalence:
    """A sharded run's shards rewritten on the pool are byte-identical
    to the same sharded run computed sequentially in-parent; the
    unsharded checks below run the simulated scheduler alone."""

    CIRCUITS = [
        lambda: mtm_like(num_pis=24, num_nodes=600, seed=0),
        lambda: mtm_like(num_pis=20, num_nodes=500, seed=5),
        lambda: sin_like(width=8),
        lambda: mem_ctrl_like(),
    ]

    def _run(self, base, kind, workers=8, shards=1, observer=None):
        aig = copy.deepcopy(base)
        config = dataclasses.replace(
            dacpara_config(workers=workers).with_executor(kind, 2),
            shards=shards, shard_min_nodes=1,
        )
        engine = DACParaRewriter(config=config, observer=observer)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a silent pool fallback is a bug
            result = engine.run(aig)
        return result, aig, engine

    @pytest.mark.parametrize("idx", range(len(CIRCUITS)))
    def test_process_byte_identical_to_simulated(self, idx):
        base = self.CIRCUITS[idx]()
        r_sim, a_sim, e_sim = self._run(base, "simulated", shards=4)
        r_proc, a_proc, e_proc = self._run(base, "process", shards=4)
        assert r_proc.shards >= 2
        assert result_fingerprint(r_sim) == result_fingerprint(r_proc)
        assert aig_fingerprint(a_sim) == aig_fingerprint(a_proc)

        def merge_counts(engine):
            stats = engine.last_shard_stats
            return {f: getattr(stats, f) for f in stats.__slots__}

        assert merge_counts(e_sim) == merge_counts(e_proc)

    def test_attempted_counts_every_worklist(self):
        # Regression: attempted used to report the last worklist only
        # (PrepInfo is swapped per round).  Every replacement and every
        # validation failure started as an evaluated root, and every
        # live node of the first pass is evaluated once.
        base = mtm_like(num_pis=24, num_nodes=600, seed=0)
        r_sim, _, _ = self._run(base, "simulated")
        assert r_sim.replacements > 0 and r_sim.delay_before > 1
        assert r_sim.attempted >= r_sim.replacements + r_sim.validation_failures
        assert r_sim.attempted >= r_sim.area_after

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
            obs = TracingObserver()
            self._run(base, kind, shards=4, observer=obs)
            return obs.metrics.snapshot()

        snap_sim = run("simulated")
        snap_proc = run("process")
        # Shipping and shard-run counts are the pool's alone; every
        # other counter is data.
        pool_only = ("snapshot_bytes_shipped_total", "worker_snapshot_cache_",
                     "shard_runs_total")
        proc_counters = {k: v for k, v in snap_proc["counters"].items()
                         if not k.startswith(pool_only)}
        assert len(proc_counters) < len(snap_proc["counters"])
        assert snap_sim["counters"] == proc_counters
        proc_only = {"snapshot_bytes", "snapshot_delta_ratio",
                     "shard_fanout_wall_seconds"}
        extras = set(snap_proc["histograms"]) - set(snap_sim["histograms"])
        assert set(snap_sim["histograms"]) <= set(snap_proc["histograms"])
        assert {e.split("{")[0] for e in extras} <= proc_only
        # Kernel and shard seconds are wall-clock; every other value is
        # data.
        wall_clock = {"eval_kernel_seconds", "enum_kernel_seconds",
                      "shard_wall_seconds"}
        for name, hist in snap_sim["histograms"].items():
            if name.split("{")[0] not in wall_clock:
                assert snap_proc["histograms"][name] == hist


class TestProcessExecutor:
    def test_jobs_validation_and_default(self):
        assert default_jobs() >= 1
        ex = ProcessExecutor(2)
        assert ex.jobs == default_jobs()
        ex.close()
        with pytest.raises(ValueError):
            ProcessExecutor(2, jobs=0)

    def test_factory_and_close_idempotent(self):
        ex = make_executor("process", 4)
        assert isinstance(ex, ProcessExecutor)
        assert isinstance(ex, SimulatedExecutor)
        assert ex.workers == 4
        ex.close()
        ex.close()

    def test_the_pool_runs_shards_only(self, monkeypatch):
        # The level stages are the simulated scheduler's: no pool ever
        # starts for them, and a process run of a level pipeline (either
        # engine) says it is single-core instead of quietly ignoring
        # ``jobs``.
        assert ProcessExecutor.run_enum is SimulatedExecutor.run_enum
        assert ProcessExecutor.run_eval is SimulatedExecutor.run_eval
        started = []
        real_ensure = ProcessExecutor._ensure_pool

        def ensure(self):
            started.append(self)
            return real_ensure(self)

        monkeypatch.setattr(ProcessExecutor, "_ensure_pool", ensure)
        base = mtm_like(num_pis=12, num_nodes=250, seed=404)

        def run(kind, shards, engine=DACParaRewriter, preset=dacpara_config):
            config = dataclasses.replace(
                preset(workers=4).with_executor(kind, 2),
                shards=shards, shard_min_nodes=1)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                aig = copy.deepcopy(base)
                result = engine(config=config).run(aig)
            return result, aig, [str(w.message) for w in caught]

        r_one, a_one, said = run("process", 1)
        assert started == [] and r_one.shards == 0
        assert len(said) == 1 and "jobs is unused" in said[0]
        _, _, said = run("process", 1, LockFusedRewriter, iccad18_config)
        assert started == []
        assert len(said) == 1 and "jobs is unused" in said[0]
        r_sim, a_sim, quiet = run("simulated", 1)
        assert quiet == []
        assert result_fingerprint(r_one) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_one) == aig_fingerprint(a_sim)

        r_four, _, quiet = run("process", 4)
        assert quiet == [] and r_four.shards == 4
        assert len(set(started)) == 1
        assert started[0].snapshot_bytes_total > 0

    def test_custom_library_uses_generic_path(self):
        # Pool workers rebuild the lookup via get_library(), so a custom
        # library keeps a sharded run's shards in-parent, rewritten
        # against the caller's library — quietly, since nothing
        # degraded: the result is the sequential sharded run's.
        from repro.library import StructureLibrary

        aig = mtm_like(num_pis=12, num_nodes=250, seed=9)
        library = StructureLibrary()
        config = dacpara_config(workers=5)

        def run(kind, shards):
            a = copy.deepcopy(aig)
            obs = TracingObserver()
            engine = DACParaRewriter(
                config=dataclasses.replace(
                    config.with_executor(kind, 2), shards=shards,
                    shard_min_nodes=1),
                library=library, observer=obs,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = engine.run(a)
            return result, a, obs.metrics.snapshot()["counters"]

        r_proc, a_proc, counters = run("process", 4)
        assert r_proc.shards >= 2
        assert not any(k.startswith("snapshot_bytes_shipped_total")
                       for k in counters)
        r_sim, a_sim, _ = run("simulated", 4)
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)

        r_one, a_one, _ = run("simulated", 1)
        a_ref = copy.deepcopy(aig)
        r_ref = reference_rewrite(a_ref, config, 5, library=library)
        assert result_fingerprint(r_one) == result_fingerprint(r_ref)
        assert aig_fingerprint(a_one) == aig_fingerprint(a_ref)


def _payload_key(triple):
    """A shard payload without its wall-clock field."""
    index, payload, units = triple
    return (index, payload["ok"], payload["nodes"], payload["outs"],
            payload["counters"], units)


class TestShardShipping:
    """How the graph reaches the shard workers: the first pass ships a
    full capture, later seam-rotation passes a delta against the base
    the workers cache (a full recapture once the delta is too large),
    and a fresh worker that misses its base is refilled."""

    BASE = staticmethod(lambda: mtm_like(num_pis=20, num_nodes=500, seed=5))

    def _run_engine(self, base, kind):
        aig = copy.deepcopy(base)
        obs = TracingObserver()
        config = dataclasses.replace(
            dacpara_config(workers=8), shards=4, shard_min_nodes=1,
            shard_passes=3,
        )
        engine = DACParaRewriter(config=config.with_executor(kind, 2),
                                 observer=obs)
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
        # fraction 0.0 forbids deltas: every pass after a splice
        # recaptures in full.
        assert shipped.get("delta", 0) == 0
        assert shipped.get("full", 0) > 0

    def test_default_run_uses_deltas(self):
        r_proc, _, metrics = self._run_engine(self.BASE(), "process")
        assert r_proc.shard_passes == 3
        shipped = self._shipped_by_kind(metrics)
        assert shipped.get("delta", 0) > 0
        assert any(
            k.startswith("snapshot_delta_ratio")
            for k in metrics["histograms"]
        )

    def test_worker_cache_refill_after_pool_restart(self):
        aig = self.BASE()
        config = dacpara_config(workers=4)
        plan, _ = plan_regions(aig, 4, 1, rotation=0, max_cuts=12)
        tasks = [(shard.index, shard) for shard in plan.shards]
        ex = ProcessExecutor(4, jobs=2)
        try:
            first = ex.run_shards(aig, tasks, config)
            assert ex.cache_refills == 0
            # Kill the pool: the replacement's fresh workers have never
            # seen this run's base snapshot, so the "cached" ref the
            # shipper sends next must miss and trigger refills.
            ex._pool.shutdown(wait=True, cancel_futures=True)
            ex._pool = None
            second = ex.run_shards(aig, tasks, config)
            assert ex.cache_refills > 0
            assert ex.shipped_bytes.get("refill", 0) > 0
            # A refill is neither a retry nor a fallback.
            assert ex.chunk_retries == 0 and ex.chunk_fallbacks == 0
        finally:
            ex.close()
        # The refilled pass computes the exact same payloads.
        assert sorted(map(_payload_key, second)) == \
            sorted(map(_payload_key, first))


def test_process_runs_never_load_shared_memory():
    """One base hand-off: a whole sharded process run finishes without
    ``multiprocessing.shared_memory`` ever imported."""
    script = """
import dataclasses, sys, warnings
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core import DACParaRewriter
warnings.simplefilter("error")  # a silent pool fallback is a bug
config = dataclasses.replace(
    dacpara_config(workers=4), executor="process", jobs=2,
    shards=2, shard_min_nodes=1, shard_passes=2)
result = DACParaRewriter(config=config).run(
    mtm_like(num_pis=12, num_nodes=250, seed=404))
assert result.replacements > 0 and result.shards == 2
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
