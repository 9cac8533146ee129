"""Sharded QoR recovery: seam rotation, boundary cleanup, merge audit.

The shard pipeline freezes boundary nodes, which used to be a
documented area regression.  This suite pins the machinery that
recovers it:

* multi-pass seam rotation re-plans regions per pass and stays
  byte-identical across executors per ``(seed, shards, passes)``;
* the sequential boundary cleanup pass sweeps former boundary and
  dangling nodes (and never makes the result worse);
* an unsharded fallback is loud — reason on the result, a
  ``shard_fallback_total{reason}`` counter, one log record — and never
  goes through the ``warnings`` module (the fuzz suite escalates
  warnings to errors to catch silent *pool* fallbacks);
* ``ShardMergeStats`` splice accounting is audited exactly against a
  hand-built two-shard fixture, including the re-strash hit counts for
  consecutive shards sharing boundary support nodes (the double-count
  regression).
"""

from __future__ import annotations

import copy
import dataclasses
import logging
import warnings

import pytest

from repro.aig import Aig, lit_var, make_lit
from repro.bench import mtm_like
from repro.config import ConfigError, RewriteConfig, dacpara_config
from repro.core import DACParaRewriter
from repro.core.partition import Shard, plan_regions
from repro.core.shards import splice_shard
from repro.core.validation import ShardMergeStats
from repro.obs.observer import TracingObserver
from repro.sat import check_equivalence_auto

from conftest import random_aig
from test_procpool import aig_fingerprint, result_fingerprint


def _engine(base, executor="simulated", observer=None, **overrides):
    aig = copy.deepcopy(base)
    config = dataclasses.replace(
        dacpara_config(workers=5), shards=4, shard_min_nodes=1, **overrides
    )
    engine = DACParaRewriter(
        config=config.with_executor(executor, 2), observer=observer
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a silent pool fallback is a bug
        result = engine.run(aig)
    return result, aig, engine


class TestMultiPassDeterminism:
    def test_repeat_runs_byte_identical(self):
        base = mtm_like(num_pis=12, num_nodes=300, seed=21)
        r_a, a_a, _ = _engine(base, shard_passes=2)
        r_b, a_b, _ = _engine(base, shard_passes=2)
        assert result_fingerprint(r_a) == result_fingerprint(r_b)
        assert aig_fingerprint(a_a) == aig_fingerprint(a_b)
        assert r_a.shard_passes == 2

    def test_process_matches_simulated(self):
        base = mtm_like(num_pis=12, num_nodes=300, seed=21)
        r_sim, a_sim, _ = _engine(base, shard_passes=2)
        r_proc, a_proc, _ = _engine(base, "process", shard_passes=2)
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        assert r_proc.shard_passes == r_sim.shard_passes == 2

    def test_pass_count_distinguishes_results(self):
        """(seed, shards, passes) is the identity: a different pass
        count is a different deterministic run, not noise."""
        base = mtm_like(num_pis=12, num_nodes=300, seed=21)
        r1, _, _ = _engine(base, shard_passes=1, boundary_cleanup=False)
        r2, _, _ = _engine(base, shard_passes=2, boundary_cleanup=False)
        assert r1.shard_passes == 1
        assert r2.shard_passes == 2
        assert r2.replacements >= r1.replacements

    def test_equivalence_preserved(self):
        base = mtm_like(num_pis=12, num_nodes=300, seed=21)
        _, out, _ = _engine(base, shard_passes=3)
        assert check_equivalence_auto(base, out).equivalent


class TestQoRRecovery:
    def test_rotation_and_cleanup_never_hurt(self):
        """The pinned monotone bound: 2 rotation passes + cleanup end
        at or below the plain (1 pass, no cleanup) sharded area —
        later passes and the cleanup only commit positive-gain
        replacements."""
        for seed in (21, 77, 123):
            base = mtm_like(num_pis=12, num_nodes=300, seed=seed)
            r_plain, _, _ = _engine(
                base, shard_passes=1, boundary_cleanup=False
            )
            r_qor, _, _ = _engine(base, shard_passes=2, boundary_cleanup=True)
            assert r_qor.area_after <= r_plain.area_after, seed

    def test_cleanup_recovers_boundary_nodes(self):
        base = mtm_like(num_pis=12, num_nodes=400, seed=5)
        obs = TracingObserver()
        r, _, _ = _engine(base, observer=obs, shard_passes=2)
        assert r.shards >= 2
        counters = obs.metrics.snapshot()["counters"]
        frozen = sum(
            v for k, v in counters.items()
            if k.startswith("shard_boundary_frozen_total")
        )
        assert frozen > 0
        assert counters.get("shard_boundary_recovered_total", 0) > 0

    def test_dangling_nodes_swept_by_cleanup(self):
        """Dangling live ANDs (reaching no PO) used to be silently
        skipped by every sharded pass; the cleanup worklist covers
        them now."""
        base = mtm_like(num_pis=12, num_nodes=300, seed=21)
        # Graft a redundant dangling cone onto the PIs: and(a,b) twice
        # through different associations, so rewriting can collapse it.
        pis = [make_lit(v) for v in base.pis[:3]]
        t0 = base.and_(pis[0], pis[1])
        t1 = base.and_(t0, pis[2])
        t2 = base.and_(pis[1], pis[2])
        base.and_(t2, pis[0])
        plan = plan_regions(base, 4, min_nodes=1)[0]
        assert plan is not None and plan.dangling
        r_off, a_off, _ = _engine(
            base, shard_passes=1, boundary_cleanup=False
        )
        r_on, a_on, _ = _engine(base, shard_passes=1, boundary_cleanup=True)
        # The dangling cone is invisible without cleanup and swept with
        # it; at minimum cleanup never loses to the frozen run.
        assert r_on.area_after <= r_off.area_after
        assert r_on.shards >= 2
        a1 = lit_var(t1)
        assert a1 in plan.dangling


class TestFallbackSurfacing:
    def _degenerate(self):
        # Single PO cone: can never decompose into two regions.
        return random_aig(num_pis=5, num_nodes=40, num_pos=1, seed=2)

    def test_result_records_reason(self):
        r, _, _ = _engine(self._degenerate())
        assert r.shards == 0
        assert r.shard_passes == 0
        assert r.shard_fallback == "too_few_pos"

    def test_sharded_run_records_no_reason(self):
        base = mtm_like(num_pis=12, num_nodes=300, seed=21)
        r, _, _ = _engine(base)
        assert r.shards >= 2
        assert r.shard_fallback == ""

    def test_unsharded_request_records_no_reason(self):
        base = self._degenerate()
        aig = copy.deepcopy(base)
        r = DACParaRewriter(config=dacpara_config(workers=2)).run(aig)
        assert r.shard_fallback == ""

    def test_fallback_counter_emitted(self):
        obs = TracingObserver()
        _engine(self._degenerate(), observer=obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get(
            "shard_fallback_total{reason=too_few_pos}", 0
        ) == 1

    def test_single_log_warning_not_warnings_module(self, caplog):
        """The diagnostic is one log record; the ``warnings`` module
        stays silent so ``simplefilter('error')`` suites survive a
        graph that legitimately does not decompose."""
        with caplog.at_level(logging.WARNING, logger="repro.shards"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _engine(self._degenerate())
        records = [
            rec for rec in caplog.records if rec.name == "repro.shards"
        ]
        assert len(records) == 1
        assert "too_few_pos" in records[0].getMessage()

    def test_json_payload_surfaces_fallback(self):
        r, _, _ = _engine(self._degenerate())
        payload = r.to_dict()
        assert payload["shards"] == 0
        assert payload["shard_fallback"] == "too_few_pos"


class TestShardMergeAudit:
    """Exact splice accounting against hand-built shards/payloads."""

    def _fixture(self):
        """Two one-node shards over a *shared* support node ``s`` (the
        configuration that used to double-count re-strash hits)."""
        aig = Aig()
        a, b, c = (aig.add_pi() for _ in range(3))
        s = aig.and_(a, b)      # shared support ("boundary")
        x = aig.and_(s, c)      # shard 0's cone
        y = aig.and_(s, c ^ 1)  # shard 1's cone
        aig.add_po(x)
        aig.add_po(y)
        sv, cv = lit_var(s), lit_var(c)
        support = (sv, cv)
        life = tuple(aig.life_stamp(v) for v in support)
        shard0 = Shard(index=0, owned=(lit_var(x),), support=support,
                       support_life=life, pos=((0, x),))
        shard1 = Shard(index=1, owned=(lit_var(y),), support=support,
                       support_life=life, pos=((1, y),))
        return aig, shard0, shard1

    @staticmethod
    def _payload(nodes, outs):
        return {
            "ok": True,
            "nodes": nodes,
            "outs": outs,
            "ands_before": 1,
            "ands_after": len(nodes),
            "counters": {"replacements": 1},
        }

    def test_restrash_hit_counted_once_per_rebuilt_node(self):
        aig, shard0, shard1 = self._fixture()
        stats = ShardMergeStats()
        # Payload vars: 0=const, 1=s, 2=c, 3+=payload nodes.
        # Shard 0 "rewrites" to and(¬s, c): a genuinely fresh node.
        p0 = self._payload(nodes=[(2 * 1 | 1, 2 * 2)], outs=[2 * 3])
        assert splice_shard(aig, shard0, p0, stats)
        assert stats.nodes_rebuilt == 1
        assert stats.restrash_hits == 0  # fresh allocation, no hit
        # Shard 1 rebuilds the *same* structure over the shared
        # support: one probe, one hit — never two (the double-count
        # bug charged a hit per strash lookup, so a structure shared
        # by consecutive shards inflated the count).
        p1 = self._payload(nodes=[(2 * 1 | 1, 2 * 2)], outs=[2 * 3 | 1])
        assert splice_shard(aig, shard1, p1, stats)
        assert stats.nodes_rebuilt == 2
        assert stats.restrash_hits == 1
        assert stats.spliced == 2

    def test_existing_structure_counts_as_hit(self):
        aig, shard0, _ = self._fixture()
        stats = ShardMergeStats()
        # Rebuilding the original cone and(s, c) strash-hits the live
        # node the parent already has.
        p0 = self._payload(nodes=[(2 * 1, 2 * 2)], outs=[2 * 3])
        assert splice_shard(aig, shard0, p0, stats)
        assert stats.nodes_rebuilt == 1
        assert stats.restrash_hits == 1

    def test_no_gain_payload_rebuilds_nothing(self):
        aig, shard0, _ = self._fixture()
        stats = ShardMergeStats()
        p0 = self._payload(nodes=[(2 * 1, 2 * 2)], outs=[2 * 3])
        p0["counters"]["replacements"] = 0
        assert not splice_shard(aig, shard0, p0, stats)
        assert stats.skipped_no_gain == 1
        assert stats.nodes_rebuilt == 0
        assert stats.restrash_hits == 0

    def test_stats_roundtrip_includes_rebuild_fields(self):
        stats = ShardMergeStats()
        d = stats.as_dict()
        assert d["restrash_hits"] == 0
        assert d["nodes_rebuilt"] == 0
        assert stats.failed == 0  # rebuild accounting is not a failure

    def test_engine_merge_stats_consistent(self):
        base = mtm_like(num_pis=12, num_nodes=300, seed=21)
        _, _, engine = _engine(base, shard_passes=2)
        stats = engine.last_shard_stats
        assert stats is not None
        assert stats.restrash_hits <= stats.nodes_rebuilt
        assert stats.spliced > 0
        assert stats.nodes_rebuilt > 0


class TestConfigAndCli:
    def test_shard_passes_validated(self):
        with pytest.raises(ConfigError):
            RewriteConfig(shard_passes=0)

    def test_defaults(self):
        config = RewriteConfig()
        assert config.shard_passes == 1
        assert config.boundary_cleanup is True

    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "rewrite", "in.aag", "--shards", "4", "--shard-passes", "3",
            "--no-boundary-cleanup",
        ])
        assert args.shard_passes == 3
        assert args.no_boundary_cleanup is True
