"""Chaos suite: fault-injected shard fan-outs must recover exactly.

The shard pool's headline guarantee — a sharded process run is
byte-identical to the sequential sharded run — must survive every
fault the ``REPRO_FAULT_PLAN`` hook can inject worker-side:

* ``kill``    — SIGKILL a worker mid-chunk (BrokenProcessPool):
  bounded pool restart, dead chunks resubmitted;
* ``hang``    — a worker sleeps past ``chunk_timeout_seconds``: only
  the wedged chunk degrades in-parent, the pool is replaced;
* ``raise``   — a worker raises: capped-backoff retry;
* ``corrupt`` — a worker returns a mangled result list: caught by the
  parent-side validator, then retried like a raise.

Recovery must be *chunk-grained* (one shard per chunk): the sibling
shards complete on worker cores (``chunk_fallback_total`` stays far
below the number of shards), and a persistent "poison" fault ends in
quarantine + in-parent computation, never a wrong or lost result.
"""

from __future__ import annotations

import copy
import dataclasses
import time
import warnings

import pytest

from repro.bench import mtm_like
from repro.config import RewriteConfig, dacpara_config
from repro.core import DACParaRewriter
from repro.core.partition import plan_regions
from repro.errors import ConfigError
from repro.galois import ProcessExecutor, faults
from repro.galois.faults import FaultPlan, _corrupt_results
from repro.galois.procpool import (
    ChunkResultError,
    _MetricCollector,
    _validate_chunk,
)
from repro.obs.metrics import FAULT_TOLERANCE_COUNTERS
from repro.obs.observer import TracingObserver

from test_procpool import _payload_key, aig_fingerprint, result_fingerprint

JOBS = 2

#: Hang faults sleep this long worker-side — longer than every chunk
#: deadline used here, short enough that a missed terminate() cannot
#: wedge the test session.
HANG_SECONDS = "5.0"


def sharded_base():
    """A circuit that decomposes into four shards (``shard_min_nodes=1``)."""
    return mtm_like(num_pis=12, num_nodes=250, seed=404)


def sharded_config(**over):
    return dataclasses.replace(
        dacpara_config(workers=8), shards=4, shard_min_nodes=1, **over
    )


def _run(base, kind, config):
    aig = copy.deepcopy(base)
    obs = TracingObserver()
    engine = DACParaRewriter(config=config.with_executor(kind, JOBS),
                             observer=obs)
    result = engine.run(aig)
    return result, aig, obs


def _counters(obs):
    return obs.metrics.snapshot()["counters"]


def _counter(obs, name):
    """Sum a counter over all of its label sets."""
    return sum(
        v for k, v in _counters(obs).items() if k.split("{")[0] == name
    )


class TestChaosMatrix:
    """The baseline the fault matrix below is read against."""

    def test_fault_counters_stay_zero_on_healthy_run(self):
        result, _, obs = _run(sharded_base(), "process", sharded_config())
        assert result.shards >= 2
        assert _counter(obs, "shard_runs_total") == result.shards
        for name in FAULT_TOLERANCE_COUNTERS:
            assert _counter(obs, name) == 0


class TestShardChaos:
    """Shard-grained fault injection: each shard ships as its own chunk
    (``mode@shard:N`` targets shard N), so a faulted shard worker must
    retry / restart / quarantine *without poisoning sibling shards* —
    they complete on worker cores — and the merged graph must stay
    byte-identical to the fault-free sequential sharded run (whose own
    equivalence to the input is pinned by the differential fuzz
    suite)."""

    @pytest.mark.parametrize("mode", ["raise", "corrupt", "kill", "hang"])
    def test_byte_identity_under_shard_fault(self, mode, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", HANG_SECONDS)
        base = sharded_base()
        r_seq, a_seq, _ = _run(base, "simulated", config=sharded_config())
        assert r_seq.shards >= 2  # sharding genuinely engaged
        cfg = sharded_config(
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
        base = sharded_base()
        r_seq, a_seq, _ = _run(base, "simulated", config=sharded_config())
        cfg = sharded_config(fault_plan="raise@shard:0:100000")
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
        base = sharded_base()
        multi = dict(shard_passes=2, boundary_cleanup=True)
        r_seq, a_seq, _ = _run(base, "simulated", config=sharded_config(**multi))
        assert r_seq.shard_passes == 2
        cfg = sharded_config(fault_plan="raise@shard:4", **multi)
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        # The pass-2 chunk genuinely faulted and recovered via retry.
        assert _counter(obs, "chunk_retries_total") >= 1
        assert _counter(obs, "chunk_fallback_total") == 0


class TestPoolCrashRecovery:
    """A killed worker mid-pass: the pass completes, the pool restarts
    within budget, and the output equals the sequential sharded run."""

    def test_stage_completes_with_bounded_restarts(self):
        base = sharded_base()
        r_seq, a_seq, _ = _run(base, "simulated", sharded_config())
        cfg = sharded_config(fault_plan="kill@shard:1")
        r_proc, a_proc, obs = _run(base, "process", cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        restarts = _counter(obs, "pool_restarts_total")
        assert 1 <= restarts <= faults.POOL_RESTART_BUDGET

    def test_restart_budget_exhaustion_degrades_not_fails(self, monkeypatch):
        """Kills on every restart burn the budget; the run must still
        finish byte-identically via in-parent degradation."""
        monkeypatch.setattr(faults, "POOL_RESTART_BUDGET", 1)
        monkeypatch.setattr(faults, "CHUNK_MAX_RETRIES", 1)
        base = sharded_base()
        r_seq, a_seq, _ = _run(base, "simulated", sharded_config())
        # Enough fires to kill the fresh pool after each restart.
        cfg = sharded_config(fault_plan="kill@shard:*:8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            r_proc, a_proc, obs = _run(base, "process", cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        assert _counter(obs, "pool_restarts_total") == 1
        assert _counter(obs, "chunk_fallback_total") >= 1


def _shard_tasks_of(aig):
    plan, _ = plan_regions(aig, 4, 1, rotation=0, max_cuts=12)
    return [(shard.index, shard) for shard in plan.shards]


class TestTimeoutDeadline:
    """A hung chunk resolves within 2 x chunk_timeout_seconds."""

    TIMEOUT = 0.75

    def _shard_pass(self, aig, config):
        ex = ProcessExecutor(4, jobs=JOBS)
        try:
            t0 = time.perf_counter()
            merged = ex.run_shards(aig, _shard_tasks_of(aig), config)
            wall = time.perf_counter() - t0
        finally:
            ex.close(wait=False)  # never join a possibly-wedged worker
        return wall, sorted(map(_payload_key, merged)), ex

    def test_hung_chunk_resolves_within_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", HANG_SECONDS)
        aig = sharded_base()
        healthy_wall, healthy, _ = self._shard_pass(
            aig, dacpara_config(workers=4)
        )
        cfg = dataclasses.replace(
            dacpara_config(workers=4),
            fault_plan="hang@shard:0",
            chunk_timeout_seconds=self.TIMEOUT,
        )
        degraded_wall, degraded, ex = self._shard_pass(aig, cfg)
        assert ex.chunk_timeouts >= 1
        assert ex.chunk_fallbacks == 1
        assert degraded == healthy
        # The injected hang sleeps far past the deadline; resolving the
        # chunk must cost at most 2 x the deadline on top of the
        # healthy pass (detection + in-parent recompute), i.e. the pass
        # never waits out the hang itself.
        assert degraded_wall < healthy_wall + 2 * self.TIMEOUT

    def test_timeout_disabled_by_none(self):
        cfg = dataclasses.replace(
            dacpara_config(), chunk_timeout_seconds=None
        )
        assert cfg.chunk_timeout_seconds is None  # valid config


class TestPoisonQuarantine:
    """Chunks that fail on every attempt are quarantined and computed
    in-parent — and the result is still byte-identical."""

    def test_persistent_fault_ends_in_quarantine(self, monkeypatch):
        monkeypatch.setattr(faults, "CHUNK_MAX_RETRIES", 1)
        base = sharded_base()
        r_seq, a_seq, _ = _run(base, "simulated", sharded_config())
        # Every shard chunk is poisoned: the whole pass degrades.
        cfg = sharded_config(fault_plan="raise@shard:*:100000")
        r_proc, a_proc, obs = _run(base, "process", cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        assert _counter(obs, "quarantined_chunks_total") == r_proc.shards
        assert _counter(obs, "chunk_fallback_total") == r_proc.shards
        assert _counter(obs, "chunk_retries_total") == r_proc.shards
        # The quarantine list carries chunk coordinates and is surfaced
        # as instant events too.
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
        aig = sharded_base()
        ex = ProcessExecutor(4, jobs=1)

        def boom(*args, **kwargs):
            raise RuntimeError("mid-pass explosion")

        monkeypatch.setattr(ProcessExecutor, "_collect_chunks", boom)
        with pytest.raises(RuntimeError, match="mid-pass explosion"):
            try:
                ex.run_shards(aig, _shard_tasks_of(aig), dacpara_config())
            finally:
                ex.close()  # what the sharded top level's ``finally`` does
        # The base snapshot captured for the failed pass does not
        # outlive the run.
        assert ex._shipper.base is None
