"""Chaos suite: fault-injected process fan-outs must recover exactly.

The process executor's headline guarantee — byte-identity with the
simulated executor — must survive every fault the ``REPRO_FAULT_PLAN``
hook can inject worker-side:

* ``kill``    — SIGKILL a worker mid-chunk (BrokenProcessPool):
  bounded pool restart, dead chunks resubmitted;
* ``hang``    — a worker sleeps past ``chunk_timeout_seconds``: only
  the wedged chunk degrades in-parent, the pool is replaced;
* ``raise``   — a worker raises: capped-backoff retry;
* ``corrupt`` — a worker returns a mangled result list: caught by the
  parent-side validator, then retried like a raise.

Recovery must be *chunk-grained*: the rest of the fan-out completes on
worker cores (``chunk_fallback_total`` stays far below the number of
chunks shipped), and a persistent "poison" fault ends in quarantine +
in-parent computation, never a wrong or lost result.
"""

from __future__ import annotations

import copy
import dataclasses
import time
import warnings

import numpy as np
import pytest

from repro.bench import mtm_like
from repro.config import RewriteConfig, dacpara_config
from repro.core import DACParaRewriter
from repro.core.operators import StageContext
from repro.cuts import CutManager
from repro.errors import ConfigError
from repro.galois import ProcessExecutor, faults
from repro.galois.faults import FaultPlan, InjectedFault, _corrupt_results
from repro.galois.procpool import (
    ChunkResultError,
    _ColumnChunk,
    _MetricCollector,
    _enum_columns,
    _validate_chunk,
)
from repro.library import get_library
from repro.obs.metrics import FAULT_TOLERANCE_COUNTERS
from repro.obs.observer import TracingObserver

from conftest import harvest_plan
from test_procpool import aig_fingerprint, result_fingerprint

JOBS = 2

#: Hang faults sleep this long worker-side — longer than every chunk
#: deadline used here, short enough that a missed terminate() cannot
#: wedge the test session.
HANG_SECONDS = "5.0"


def _run(base, kind, config=None):
    aig = copy.deepcopy(base)
    obs = TracingObserver()
    engine = DACParaRewriter(
        config=(config or dacpara_config(workers=8)).with_executor(kind, JOBS),
        observer=obs,
    )
    result = engine.run(aig)
    return result, aig, obs


def _counters(obs):
    return obs.metrics.snapshot()["counters"]


def _counter(obs, name):
    """Sum a counter over all of its label sets."""
    return sum(
        v for k, v in _counters(obs).items() if k.split("{")[0] == name
    )


def _shipped(obs):
    """Stage-ref bytes over the pipe; ``refill`` aside — whether a
    late-spawned worker needs one is scheduling noise."""
    return sum(
        v for k, v in _counters(obs).items()
        if k.startswith("snapshot_bytes_shipped_total")
        and "kind=refill" not in k
    )


def _total_chunks(obs):
    """Chunks shipped across every fan-out stage of a run."""
    return sum(
        span.args.get("chunks", 0)
        for span in obs.tracer.spans
        if span.name in ("eval_fanout", "enum_fanout")
    )


class TestChaosMatrix:
    """Byte-identity to simulated mode under each injected fault."""

    BASE = staticmethod(lambda: mtm_like(num_pis=20, num_nodes=500, seed=5))

    @pytest.mark.parametrize("mode,stage", [
        ("raise", "eval"),
        ("raise", "enum"),
        ("corrupt", "eval"),
        ("corrupt", "enum"),
        ("kill", "eval"),
        ("hang", "eval"),
        ("kill", "enum"),
        ("hang", "enum"),
    ])
    def test_byte_identity_under_fault(self, mode, stage, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", HANG_SECONDS)
        base = self.BASE()
        r_sim, a_sim, _ = _run(base, "simulated")
        cfg = dataclasses.replace(
            dacpara_config(workers=8),
            fault_plan=f"{mode}@{stage}:0",
            chunk_timeout_seconds=1.0,
        )
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        # Chunk-grained recovery: at most the one faulted chunk fell
        # back in-parent; everything else completed on worker cores.
        fallbacks = _counter(obs, "chunk_fallback_total")
        assert fallbacks <= 1
        assert fallbacks < _total_chunks(obs)
        if mode in ("raise", "corrupt"):
            assert _counter(obs, "chunk_retries_total") >= 1
            assert fallbacks == 0
        if mode == "kill":
            restarts = _counter(obs, "pool_restarts_total")
            assert 1 <= restarts <= faults.POOL_RESTART_BUDGET
        if mode == "hang":
            assert _counter(obs, "chunk_timeouts_total") >= 1
            assert fallbacks == 1

    def test_fault_counters_stay_zero_on_healthy_run(self):
        _, _, obs = _run(self.BASE(), "process")
        for name in FAULT_TOLERANCE_COUNTERS:
            assert _counter(obs, name) == 0

    @pytest.mark.parametrize("stage", ["enum", "eval"])
    def test_failed_column_chunk_splits_and_both_halves_replay(
            self, stage, monkeypatch):
        # Two fires against a one-retry budget: the chunk fails, fails
        # its retry, is split — and both halves (sharing the chunk's
        # rows, each with half its task vectors) come back clean from
        # worker cores.
        monkeypatch.setattr(faults, "CHUNK_MAX_RETRIES", 1)
        base = self.BASE()
        r_sim, a_sim, _ = _run(base, "simulated")
        cfg = dataclasses.replace(
            dacpara_config(workers=8), fault_plan=f"raise@{stage}:0:2",
        )
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        splits = [e for e in obs.wall.events if e.name == "chunk_split"]
        assert [e.args["stage"] for e in splits] == [stage]
        # One retry, then the two halves.
        assert _counter(obs, "chunk_retries_total") == 3
        assert _counter(obs, "chunk_fallback_total") == 0
        assert _counter(obs, "quarantined_chunks_total") == 0
        # Every resubmission ships the stage ref again.
        _, _, clean = _run(base, "process")
        assert _shipped(obs) > _shipped(clean)


class TestShardChaos:
    """Shard-grained fault injection: each shard ships as its own chunk
    (``mode@shard:N`` targets shard N), so a faulted shard worker must
    retry / restart / quarantine *without poisoning sibling shards* —
    they complete on worker cores — and the merged graph must stay
    byte-identical to the fault-free sequential sharded run (whose own
    equivalence to the input is pinned by the differential fuzz
    suite)."""

    BASE = staticmethod(lambda: mtm_like(num_pis=12, num_nodes=250, seed=404))

    def _cfg(self, **over):
        return dataclasses.replace(
            dacpara_config(workers=8), shards=4, shard_min_nodes=1, **over
        )

    @pytest.mark.parametrize("mode", ["raise", "corrupt", "kill", "hang"])
    def test_byte_identity_under_shard_fault(self, mode, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", HANG_SECONDS)
        base = self.BASE()
        r_seq, a_seq, _ = _run(base, "simulated", config=self._cfg())
        assert r_seq.shards >= 2  # sharding genuinely engaged
        cfg = self._cfg(
            fault_plan=f"{mode}@shard:0",
            chunk_timeout_seconds=1.0,
        )
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        # Sibling shards were never dragged in-parent: at most the one
        # faulted shard chunk fell back.
        fallbacks = _counter(obs, "chunk_fallback_total")
        assert fallbacks <= 1
        assert fallbacks < r_proc.shards
        if mode in ("raise", "corrupt"):
            assert _counter(obs, "chunk_retries_total") >= 1
            assert fallbacks == 0
        if mode == "kill":
            assert _counter(obs, "pool_restarts_total") >= 1
        if mode == "hang":
            assert _counter(obs, "chunk_timeouts_total") >= 1
            assert fallbacks == 1

    def test_poisoned_shard_quarantines_without_spreading(self, monkeypatch):
        """A shard that fails on every attempt ends in quarantine and
        in-parent recompute; its siblings still run pool-side and the
        merged result is byte-identical and equivalent to the input."""
        from repro.sat import check_equivalence_auto

        monkeypatch.setattr(faults, "CHUNK_MAX_RETRIES", 1)
        base = self.BASE()
        r_seq, a_seq, _ = _run(base, "simulated", config=self._cfg())
        cfg = self._cfg(fault_plan="raise@shard:0:100000")
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        assert check_equivalence_auto(base, a_proc).equivalent
        assert _counter(obs, "quarantined_chunks_total") >= 1
        # Exactly the poisoned shard degraded; the siblings' payloads
        # still came back from worker cores.
        assert _counter(obs, "chunk_fallback_total") == 1
        assert r_proc.shards >= 2

    def test_fault_on_rotation_pass_two_chunk(self):
        """Shard chunk coordinates are cumulative across seam-rotation
        passes: with 4 first-pass shards, ``shard:4`` addresses the
        first chunk of pass 2, and the faulted multi-pass run must
        still match the fault-free sequential one byte for byte."""
        base = self.BASE()
        multi = dict(shard_passes=2, boundary_cleanup=True)
        r_seq, a_seq, _ = _run(base, "simulated", config=self._cfg(**multi))
        assert r_seq.shard_passes == 2
        cfg = self._cfg(fault_plan="raise@shard:4", **multi)
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        # The pass-2 chunk genuinely faulted and recovered via retry.
        assert _counter(obs, "chunk_retries_total") >= 1
        assert _counter(obs, "chunk_fallback_total") == 0


class TestPoolCrashRecovery:
    """A killed worker mid-stage: the stage completes, the pool
    restarts within budget, and the output equals simulated mode."""

    def test_stage_completes_with_bounded_restarts(self):
        base = mtm_like(num_pis=24, num_nodes=600, seed=0)
        r_sim, a_sim, _ = _run(base, "simulated")
        cfg = dataclasses.replace(
            dacpara_config(workers=8), fault_plan="kill@eval:0",
        )
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        restarts = _counter(obs, "pool_restarts_total")
        assert 1 <= restarts <= faults.POOL_RESTART_BUDGET

    def test_restart_budget_exhaustion_degrades_not_fails(self, monkeypatch):
        """Kills on every restart burn the budget; the run must still
        finish byte-identically via in-parent degradation."""
        monkeypatch.setattr(faults, "POOL_RESTART_BUDGET", 1)
        monkeypatch.setattr(faults, "CHUNK_MAX_RETRIES", 1)
        base = mtm_like(num_pis=16, num_nodes=300, seed=21)
        # Same logical worker count as the faulted run: the simulated
        # timeline (and so the makespan) depends on it.
        r_sim, a_sim, _ = _run(base, "simulated", config=dacpara_config(workers=4))
        cfg = dataclasses.replace(
            dacpara_config(workers=4),
            # Enough fires to kill the fresh pool after each restart.
            fault_plan="kill@eval:*:8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        assert _counter(obs, "pool_restarts_total") == 1
        assert _counter(obs, "chunk_fallback_total") >= 1


class TestTimeoutDeadline:
    """A hung chunk resolves within 2 x chunk_timeout_seconds."""

    TIMEOUT = 0.75

    def _eval_stage(self, aig, config):
        a = copy.deepcopy(aig)
        cutman = CutManager(a, k=4, max_cuts=12)
        live = a.topo_ands()
        for root in live:
            cutman.fresh_cuts(root)
        ctx = StageContext(
            aig=a, cutman=cutman, library=get_library(), config=config
        )
        ex = ProcessExecutor(4, jobs=JOBS)
        try:
            t0 = time.perf_counter()
            ex.run_eval("eval", live, ctx)
            wall = time.perf_counter() - t0
        finally:
            ex.close(wait=False)  # never join a possibly-wedged worker
        stored = {
            v: (c.gain, c.canon_tt)
            for v in live
            for c in (ctx.prep_info.get(v),)
            if c is not None
        }
        return wall, stored, ex

    def test_hung_chunk_resolves_within_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", HANG_SECONDS)
        aig = mtm_like(num_pis=16, num_nodes=300, seed=7)
        healthy_wall, healthy_stored, _ = self._eval_stage(
            aig, dacpara_config(workers=4)
        )
        cfg = dataclasses.replace(
            dacpara_config(workers=4),
            fault_plan="hang@eval:0",
            chunk_timeout_seconds=self.TIMEOUT,
        )
        degraded_wall, degraded_stored, ex = self._eval_stage(aig, cfg)
        assert ex.chunk_timeouts >= 1
        assert ex.chunk_fallbacks == 1
        assert degraded_stored == healthy_stored
        # The injected hang sleeps far past the deadline; resolving the
        # chunk must cost at most 2 x the deadline on top of the
        # healthy stage (detection + in-parent recompute), i.e. the
        # stage never waits out the hang itself.
        assert degraded_wall < healthy_wall + 2 * self.TIMEOUT

    def test_timeout_disabled_by_none(self):
        cfg = dataclasses.replace(
            dacpara_config(), chunk_timeout_seconds=None
        )
        assert cfg.chunk_timeout_seconds is None  # valid config


class TestPoisonQuarantine:
    """A chunk that fails on every attempt is split, quarantined and
    computed in-parent — and the result is still byte-identical."""

    def test_persistent_fault_ends_in_quarantine(self, monkeypatch):
        monkeypatch.setattr(faults, "CHUNK_MAX_RETRIES", 1)
        base = mtm_like(num_pis=16, num_nodes=220, seed=9)
        r_sim, a_sim, _ = _run(base, "simulated", config=dacpara_config(workers=4))
        cfg = dataclasses.replace(
            dacpara_config(workers=4),
            fault_plan="raise@eval:0:100000",
        )
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        assert _counter(obs, "quarantined_chunks_total") >= 1
        assert _counter(obs, "chunk_fallback_total") >= 1
        assert _counter(obs, "chunk_retries_total") >= 2
        # The quarantine list carries (stage, chunk) coordinates and is
        # surfaced as instant events too.
        names = {e.name for e in obs.tracer.events}
        assert "chunk_quarantined" in names


class TestFaultPlan:
    def test_parse_and_arm_consume_fires(self):
        plan = FaultPlan.parse("raise@eval:0; kill@enum:*:2")
        assert plan.arm("eval", 0) == "raise"
        assert plan.arm("eval", 0) is None  # single fire consumed
        assert plan.arm("enum", 3) == "kill"
        assert plan.arm("enum", 1) == "kill"
        assert plan.arm("enum", 1) is None
        assert plan.arm("replace", 0) is None

    def test_wildcard_stage(self):
        plan = FaultPlan.parse("hang@*:1")
        assert plan.arm("eval", 0) is None
        assert plan.arm("enum", 1) == "hang"

    def test_empty_and_invalid_specs(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("  ") is None
        with pytest.raises(ValueError):
            FaultPlan.parse("explode@eval:0")
        with pytest.raises(ValueError):
            FaultPlan.parse("raise@eval")
        with pytest.raises(ConfigError):
            RewriteConfig(fault_plan="explode@eval:0")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RewriteConfig(chunk_timeout_seconds=0.0)
        with pytest.raises(ConfigError):
            RewriteConfig(chunk_timeout_seconds=-1.0)
        cfg = RewriteConfig(
            chunk_timeout_seconds=1.5, fault_plan="raise@eval:0",
        )
        assert cfg.chunk_timeout_seconds == 1.5


class TestChunkValidator:
    def test_accepts_aligned_results(self):
        tasks = [(3, ()), (5, ())]
        results = [(3, None, 1), (5, "cand", 2)]
        assert _validate_chunk(tasks, results) is results

    def test_rejects_wrong_length_and_roots(self):
        tasks = [(3, ()), (5, ())]
        with pytest.raises(ChunkResultError):
            _validate_chunk(tasks, [(3, None, 1)])
        with pytest.raises(ChunkResultError):
            _validate_chunk(tasks, [(3, None, 1), (6, None, 1)])
        with pytest.raises(ChunkResultError):
            _validate_chunk(tasks, [(3, None, 1), (5, None)])
        with pytest.raises(ChunkResultError):
            _validate_chunk(tasks, "garbage")

    def test_corrupt_fault_is_always_detectable(self):
        tasks = [(3, ()), (5, ()), (9, ())]
        clean = [(3, None, 1), (5, None, 1), (9, None, 2)]
        with pytest.raises(ChunkResultError):
            _validate_chunk(tasks, _corrupt_results(list(clean)))
        with pytest.raises(ChunkResultError):
            _validate_chunk([(3, ())], _corrupt_results([(3, None, 1)]))
        with pytest.raises(ChunkResultError):
            _validate_chunk([], _corrupt_results([]))


class TestColumnChunkValidator:
    """Column chunks (enum/eval) are answered by column tuples: the
    validator checks the root echo and that the row columns hold the
    rows the per-task counts announce."""

    @staticmethod
    def _enum_chunk_and_result():
        aig = mtm_like(num_pis=12, num_nodes=120, seed=6)
        cutman = CutManager(aig, k=4, max_cuts=12)
        plan = harvest_plan(cutman)
        vectors, rows = cutman.export_tasks(plan, plan.waves[0])
        chunk = _ColumnChunk(vectors[0], vectors[1:], rows)
        result = _enum_columns(aig, chunk, dacpara_config(), _MetricCollector())
        return aig, chunk, result

    def test_accepts_the_workers_answer(self):
        _, chunk, result = self._enum_chunk_and_result()
        assert _validate_chunk(chunk, result) is result

    def test_rejects_root_echo_and_row_count_mismatches(self):
        _, chunk, result = self._enum_chunk_and_result()
        roots, counts, leaves, tt, stamps, sign = result
        bad_echo = (roots + 1,) + result[1:]
        short_rows = (roots, counts, leaves[:-1], tt, stamps, sign)
        long_counts = (roots, counts + 1) + result[2:]
        missing_task = (roots[:-1], counts[:-1]) + result[2:]
        for bad in (bad_echo, short_rows, long_counts, missing_task,
                    list(result), "garbage", (roots, counts)):
            with pytest.raises(ChunkResultError):
                _validate_chunk(chunk, bad)

    def test_corrupt_fault_is_always_detectable(self):
        _, chunk, result = self._enum_chunk_and_result()
        mangled = _corrupt_results(result)
        # Both manglings are present, and each alone is caught.
        assert not np.array_equal(mangled[0], chunk.roots)
        assert mangled[1].sum() != len(mangled[2])
        with pytest.raises(ChunkResultError):
            _validate_chunk(chunk, mangled)
        with pytest.raises(ChunkResultError):
            _validate_chunk(chunk, (mangled[0],) + result[1:])
        with pytest.raises(ChunkResultError):
            _validate_chunk(chunk, result[:2] + mangled[2:])
        # An eval result (echo, units, winners) is mangled the same way.
        eval_result = (chunk.roots, np.zeros(len(chunk), dtype=np.int64), [])
        assert _validate_chunk(chunk, eval_result) is eval_result
        with pytest.raises(ChunkResultError):
            _validate_chunk(chunk, _corrupt_results(eval_result))

    def test_split_halves_answer_for_their_own_roots(self):
        aig, chunk, result = self._enum_chunk_and_result()
        mid = len(chunk) // 2
        lo, hi = chunk[:mid], chunk[mid:]
        assert len(lo) + len(hi) == len(chunk)
        assert lo.row_cols is chunk.row_cols  # rows ride along whole
        parts = [_enum_columns(aig, half, dacpara_config(), _MetricCollector())
                 for half in (lo, hi)]
        for half, part in zip((lo, hi), parts):
            _validate_chunk(half, part)
        for k in range(1, 6):  # counts + the four row columns
            assert np.array_equal(
                np.concatenate([p[k] for p in parts]), result[k])
        with pytest.raises(ChunkResultError):
            _validate_chunk(lo, parts[1])


class TestCollectorLabelReplay:
    """Regression: labeled histogram observations recorded worker-side
    must keep their labels when replayed into the parent observer."""

    def test_observe_replays_labels(self):
        collector = _MetricCollector()
        collector.observe("latency", 1.0, stage="eval")
        collector.observe("latency", 3.0, stage="enum")
        collector.observe("latency", 7.0)
        obs = TracingObserver()
        collector.replay_into(obs)
        snap = obs.metrics.snapshot()["histograms"]
        assert snap["latency{stage=eval}"]["count"] == 1
        assert snap["latency{stage=enum}"]["sum"] == 3.0
        assert snap["latency"]["count"] == 1

    def test_merge_preserves_labels(self):
        a, b = _MetricCollector(), _MetricCollector()
        a.observe("h", 1.0, stage="eval")
        b.observe("h", 2.0, stage="eval")
        a.merge(b)
        obs = TracingObserver()
        a.replay_into(obs)
        snap = obs.metrics.snapshot()["histograms"]
        assert snap["h{stage=eval}"]["count"] == 2


class TestResourceSafety:
    def test_close_nowait_is_safe_and_idempotent(self):
        ex = ProcessExecutor(4, jobs=1)
        assert ex._ensure_pool() is not None
        ex.close(wait=False)
        assert ex._pool is None
        ex.close(wait=False)
        ex.close()

    def test_del_does_not_wait(self):
        # __del__ must take the non-blocking path; a wedged worker
        # would otherwise hang garbage collection forever.
        ex = ProcessExecutor(4, jobs=1)
        ex._ensure_pool()
        ex.__del__()
        assert ex._pool is None

    def test_shipper_released_when_stage_raises(self, monkeypatch):
        aig = mtm_like(num_pis=16, num_nodes=200, seed=8)
        cutman = CutManager(aig, k=4, max_cuts=12)
        live = aig.topo_ands()
        for root in live:
            cutman.fresh_cuts(root)
        ctx = StageContext(
            aig=aig, cutman=cutman, library=get_library(),
            config=dacpara_config(),
        )
        ex = ProcessExecutor(4, jobs=1)

        def boom(*args, **kwargs):
            raise RuntimeError("mid-stage explosion")

        monkeypatch.setattr(ProcessExecutor, "_collect_chunks", boom)
        with pytest.raises(RuntimeError, match="mid-stage explosion"):
            try:
                ex.run_eval("eval", live, ctx)
            finally:
                ex.close()  # what the driver's own ``finally`` does
        # The base snapshot captured for the failed stage does not
        # outlive the run.
        assert ex._shipper.base is None
