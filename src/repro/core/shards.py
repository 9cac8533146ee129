"""Shard-parallel rewriting: the full pipeline per TFI/TFO-disjoint region.

The level pipeline in :mod:`repro.core.dacpara` fans out one worklist
at a time from a single parent — at the paper's multi-million-node
scale the per-level barrier itself becomes the serial bottleneck.
This module runs divide-and-conquer one level up:

1. :func:`~repro.core.partition.plan_regions` splits the graph into
   TFI/TFO-disjoint shards (PO-cone groups with frozen boundary
   nodes);
2. each shard is extracted into a self-contained sub-AIG (support
   nodes become pseudo-PIs) and the *entire*
   enumerate/evaluate/replace level pipeline runs on it — on pool
   workers via :meth:`~repro.galois.procpool.ProcessExecutor.run_shards`
   under ``executor="process"`` (the graph ships as the pass's snapshot
   ref; each shard task is only its var lists), or sequentially
   in-parent otherwise;
3. results come back as renumbered node lists and are spliced into the
   parent graph through :func:`~repro.core.validation.
   validate_shard_payload` — rebuilding through ``Aig.and_`` *is* the
   boundary re-strash: unchanged subcones hash back onto the existing
   nodes, and the old cones die by reference-count cascade once the
   POs are redirected.

Because boundary nodes are frozen (they are support, never owned),
shards cannot observe each other's mutations; each worker's rewrite is
fully deterministic (simulated executor inside), so a sharded run is
reproducible at fixed seed/shard count/pass count and the in-parent
fault fallback reproduces a lost worker's payload exactly.  The cost
of the freeze used to be QoR — boundary nodes and cuts crossing them
were never rewritten — and two mechanisms recover it:

* **seam rotation** (``config.shard_passes > 1``): each pass re-plans
  the regions with a rotated PO grouping
  (:func:`~repro.core.partition.plan_regions` with ``rotation=pass``),
  so the frozen boundary lands on different nodes and later passes
  rewrite what earlier passes froze;
* a **boundary cleanup pass** (``config.boundary_cleanup``): after the
  sharded passes, the normal sequential pipeline re-runs restricted to
  the former boundary / dangling nodes' TFI neighborhood
  (:func:`~repro.core.partition.cleanup_region`), finally seeing the
  seam-crossing cuts no shard could.  It runs on the simulated
  executor regardless of the outer executor, so sharded runs stay
  byte-identical across executors.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from typing import Dict, List, Optional, Tuple

from ..aig import Aig, LIT_FALSE, lit_var, make_lit
from ..aig.simulate import random_simulation
from ..rewrite.result import RewriteResult
from .partition import Shard, cleanup_region, plan_regions
from .validation import ShardMergeStats, validate_shard_payload

#: Fallback diagnostics go through logging, not ``warnings`` — the
#: differential fuzz suite runs with ``warnings.simplefilter("error")``
#: to catch silent *pool* fallbacks, and a graph that legitimately does
#: not decompose must not trip that net.
_LOG = logging.getLogger("repro.shards")

#: Simulation width and pattern seed of the worker-side pre/post
#: equivalence guard.
SHARD_CHECK_WIDTH = 64
SHARD_CHECK_SEED = 0


def shard_subconfig(config):
    """The per-shard run configuration: sharding disabled (no nested
    pools — the worker pipeline runs on the simulated executor), fault
    injection cleared (faults are injected at the shard fan-out, not
    inside the already-failed worker)."""
    return dataclasses.replace(
        config, shards=1, executor="simulated", fault_plan=None,
    )


def build_shard_aig(src, shard: Shard) -> Tuple[Aig, Dict[int, int]]:
    """Extract ``shard`` from ``src`` (a live Aig or an AigSnapshot)
    into a fresh sub-AIG.

    Support nodes become the sub-graph's PIs in ``shard.support``
    order; owned nodes are replayed through ``and_`` in topological
    order (the parent is strashed, so live nodes never fold — the
    rebuild is 1:1); the shard's POs close the cones.  Returns the
    sub-AIG and the parent-var → sub-literal mapping.
    """
    sub = Aig()
    mapping: Dict[int, int] = {0: LIT_FALSE}
    for v in shard.support:
        mapping[v] = sub.add_pi()
    fanin0 = src.fanin0
    fanin1 = src.fanin1
    for v in shard.owned:
        f0 = fanin0(v)
        f1 = fanin1(v)
        mapping[v] = sub.and_(
            mapping[lit_var(f0)] ^ (f0 & 1),
            mapping[lit_var(f1)] ^ (f1 & 1),
        )
    for _po_index, po_lit in shard.pos:
        sub.add_po(mapping[lit_var(po_lit)] ^ (po_lit & 1))
    return sub, mapping


def _serialize_sub(sub: Aig, k: int) -> Tuple[List[tuple], List[int]]:
    """Renumber the rewritten sub-AIG into a payload the parent can
    splice: const is 0, support PIs are ``1..k`` (creation order), and
    PO-reachable ANDs take ``k+1..`` in topological order.  Dangling
    sub nodes are dropped — they must not materialize in the parent.
    """
    reach: set = set()
    stack = [lit_var(sub.po_lit(i)) for i in range(sub.num_pos)]
    while stack:
        v = stack.pop()
        if v in reach or not sub.is_and(v):
            continue
        reach.add(v)
        stack.append(lit_var(sub.fanin0(v)))
        stack.append(lit_var(sub.fanin1(v)))
    remap = {0: 0}
    for i in range(k):
        remap[i + 1] = i + 1  # PI vars of a fresh Aig are 1..k
    nodes: List[tuple] = []
    for v in sub.topo_ands():
        if v not in reach:
            continue
        remap[v] = k + 1 + len(nodes)
        f0 = sub.fanin0(v)
        f1 = sub.fanin1(v)
        nodes.append((
            remap[lit_var(f0)] * 2 | (f0 & 1),
            remap[lit_var(f1)] * 2 | (f1 & 1),
        ))
    outs = []
    for i in range(sub.num_pos):
        lit = sub.po_lit(i)
        outs.append(remap[lit_var(lit)] * 2 | (lit & 1))
    return nodes, outs


def rewrite_shard(src, shard: Shard, config) -> dict:
    """Run the full DACPara pipeline on one shard; returns the splice
    payload.

    Runs identically against the live graph (sequential in-process
    mode, fault fallback) or a snapshot (pool worker): the sub-AIG
    build reads only fanins and levels, and the rewrite inside is
    deterministic, so every path produces the same payload bytes.
    ``ok`` records the worker-side pre/post simulation-signature
    check — a guard the merge validation refuses to splice without.
    """
    from .dacpara import DACParaRewriter

    start = time.perf_counter()
    sub, _ = build_shard_aig(src, shard)
    ands_before = sub.num_ands
    pre = random_simulation(sub, width=SHARD_CHECK_WIDTH, seed=SHARD_CHECK_SEED)
    engine = DACParaRewriter(config=shard_subconfig(config))
    result = engine.run(sub)
    post = random_simulation(sub, width=SHARD_CHECK_WIDTH, seed=SHARD_CHECK_SEED)
    nodes, outs = _serialize_sub(sub, len(shard.support))
    return {
        "ok": pre == post,
        "nodes": nodes,
        "outs": outs,
        "ands_before": ands_before,
        "ands_after": sub.num_ands,
        "counters": {
            "replacements": result.replacements,
            "attempted": result.attempted,
            "validation_failures": result.validation_failures,
            "revalidated": result.revalidated,
            "work_units": result.work_units,
            "makespan_units": result.makespan_units,
            "conflicts": result.conflicts,
            "aborted_units": result.aborted_units,
            "passes": result.passes,
            "stage_units": dict(result.stage_units),
        },
        "wall_seconds": time.perf_counter() - start,
    }


def splice_shard(
    aig: Aig, shard: Shard, payload: dict, stats: ShardMergeStats
) -> bool:
    """Validate and splice one shard's payload into the parent graph.

    Rebuilding through ``and_`` re-strashes the shard against the live
    graph (unchanged subcones — and nodes shared with the boundary —
    hash onto existing nodes instead of duplicating them), then the
    shard's POs are redirected and the displaced cones die by
    reference-count cascade.  New out drivers carry protection
    references across the redirects: an earlier PO's deletion cascade
    could otherwise free a strash-hit node a later PO still needs.

    Re-strash hits are counted with a ``has_and`` probe *before* each
    rebuild call, per payload node actually rebuilt — not per strash
    lookup — so consecutive shards sharing boundary support nodes
    cannot double-count a hit (var ids are recycled, so an index
    threshold on the allocator would miscount instead).
    """
    if not validate_shard_payload(aig, shard, payload, stats):
        return False
    if payload["counters"]["replacements"] == 0:
        # Nothing changed: splicing would rebuild the identical cones.
        stats.skipped_no_gain += 1
        return False
    k = len(shard.support)
    lits = [LIT_FALSE] * (k + 1 + len(payload["nodes"]))
    for i, v in enumerate(shard.support):
        lits[i + 1] = make_lit(v)
    for j, (a, b) in enumerate(payload["nodes"]):
        fa = lits[a >> 1] ^ (a & 1)
        fb = lits[b >> 1] ^ (b & 1)
        stats.nodes_rebuilt += 1
        if aig.has_and(fa, fb) >= 0:
            stats.restrash_hits += 1
        lits[k + 1 + j] = aig.and_(fa, fb)
    out_lits = [lits[o >> 1] ^ (o & 1) for o in payload["outs"]]
    protected = []
    for lit in out_lits:
        v = lit_var(lit)
        if aig.is_and(v):
            aig.add_ref(v)
            protected.append(v)
    for (po_index, _old_lit), lit in zip(shard.pos, out_lits):
        aig.set_po(po_index, lit)
    for v in protected:
        aig.drop_ref(v)
    stats.spliced += 1
    return True


def run_sharded(rewriter, aig: Aig) -> Optional[RewriteResult]:
    """The sharded top level: plan regions, rewrite each shard's
    sub-AIG (concurrently on the process pool, sequentially otherwise),
    splice the results back — repeated ``config.shard_passes`` times
    with a rotated seam, then swept by the boundary cleanup pass.

    Returns None when the graph does not decompose (the caller then
    runs the unsharded pipeline); the fallback is *not* silent — the
    reason is recorded on the rewriter (surfaced as
    ``RewriteResult.shard_fallback``), counted as
    ``shard_fallback_total{reason}``, and logged once.
    """
    from ..galois import ProcessExecutor
    from ..library import get_library
    from .dacpara import DACParaRewriter

    config = rewriter.config
    obs = rewriter.obs
    est_cap = config.max_cuts if config.max_cuts is not None else 12
    plan, reason = plan_regions(
        aig, config.shards, config.shard_min_nodes,
        rotation=0, max_cuts=est_cap,
    )
    if plan is None:
        reason = reason or "unknown"
        rewriter._shard_fallback = reason
        if obs.enabled:
            obs.count("shard_fallback_total", 1, reason=reason)
        _LOG.warning(
            "sharded rewrite requested (shards=%d) but the graph does not "
            "decompose (%s); running the unsharded pipeline instead",
            config.shards, reason,
        )
        return None

    result = RewriteResult.begin(
        rewriter.name, config.workers, aig, shards=plan.num_shards
    )
    run_span = None
    if obs.enabled:
        run_span = obs.begin(
            "sharded_run", "run", 0, engine=rewriter.name,
            shards=plan.num_shards, boundary=len(plan.boundary),
            area_before=aig.num_ands, shard_passes=config.shard_passes,
        )

    # Pool workers rebuild the structure library via get_library(), so
    # a custom library keeps the whole fan-out in-parent.  One pool
    # serves every pass: the snapshot shipper sends deltas between
    # passes and fault-plan chunk coordinates stay cumulative.
    pool = (
        ProcessExecutor(config.workers, observer=obs, jobs=config.jobs)
        if config.executor == "process" and rewriter.library is get_library()
        else None
    )

    stats = ShardMergeStats()
    stage_units: Dict[str, int] = {}
    makespan_total = 0
    # Every node any pass froze (boundary) or skipped (dangling), with
    # its life stamp at freeze time: the cleanup pass targets the ones
    # still alive afterwards, and the recovery counter reports the ones
    # that did get rewritten away (by rotation or cleanup).
    former_targets: Dict[int, int] = {}
    passes_run = 0
    try:
        for pass_index in range(config.shard_passes):
            if pass_index > 0:
                # Re-plan against the rewritten graph with a rotated
                # seam; a graph that stopped decomposing ends rotation.
                plan, _late_reason = plan_regions(
                    aig, config.shards, config.shard_min_nodes,
                    rotation=pass_index, max_cuts=est_cap,
                )
                if plan is None:
                    break
            passes_run += 1
            result.shards = max(result.shards, plan.num_shards)
            for v in plan.boundary:
                former_targets.setdefault(v, aig.life_stamp(v))
            for v in plan.dangling:
                former_targets.setdefault(v, aig.life_stamp(v))
            pass_span = None
            if obs.enabled:
                obs.count("shard_boundary_frozen_total", len(plan.boundary),
                          shard_pass=pass_index)
                obs.gauge("shard_plan_shards", plan.num_shards)
                for shard in plan.shards:
                    obs.observe("shard_nodes", len(shard.owned))
                pass_span = obs.begin(
                    "shard_pass", "pass", 0, index=pass_index,
                    rotation=plan.rotation, shards=plan.num_shards,
                    boundary=len(plan.boundary),
                )

            tasks = [(shard.index, shard) for shard in plan.shards]
            if pool is not None:
                merged = pool.run_shards(aig, tasks, config,
                                         pass_index=pass_index)
            else:
                merged = []
                for index, shard in tasks:
                    payload = rewrite_shard(aig, shard, config)
                    merged.append(
                        (index, payload, payload["counters"]["work_units"])
                    )

            pass_replacements = 0
            pass_makespan = 0
            # Splice in shard-index order — the merge order is part of
            # the deterministic contract regardless of which worker
            # finished first.
            for index, payload, _units in sorted(
                merged, key=lambda entry: entry[0]
            ):
                shard = plan.shards[index]
                spliced = splice_shard(aig, shard, payload, stats)
                if isinstance(payload, dict) and "counters" in payload:
                    c = payload["counters"]
                    result.work_units += c.get("work_units", 0)
                    pass_makespan = max(
                        pass_makespan, c.get("makespan_units", 0)
                    )
                    result.conflicts += c.get("conflicts", 0)
                    result.aborted_units += c.get("aborted_units", 0)
                    result.passes = max(result.passes, c.get("passes", 0))
                    for name, units in c.get("stage_units", {}).items():
                        stage_units[name] = stage_units.get(name, 0) + units
                    if spliced:
                        pass_replacements += c.get("replacements", 0)
                        result.replacements += c.get("replacements", 0)
                        result.attempted += c.get("attempted", 0)
                        result.validation_failures += c.get(
                            "validation_failures", 0
                        )
                        result.revalidated += c.get("revalidated", 0)
                    if obs.enabled:
                        obs.observe(
                            "shard_wall_seconds",
                            payload.get("wall_seconds", 0.0),
                            shard_pass=pass_index,
                        )
            # Shards of one pass run concurrently; passes are
            # sequential, so the run's makespan sums per-pass maxima.
            makespan_total += pass_makespan
            if obs.enabled:
                obs.end(pass_span, 0, replacements=pass_replacements,
                        area=aig.num_ands)
    finally:
        if pool is not None:
            pool.close()

    # Sequential boundary cleanup: re-run the normal pipeline over the
    # former-seam neighborhood.  Always on the simulated executor, so
    # the sharded result stays byte-identical across outer executors.
    if config.boundary_cleanup:
        targets = [
            v for v, life in sorted(former_targets.items())
            if aig.is_and(v) and not aig.is_dead(v)
            and aig.life_stamp(v) == life
        ]
        region = cleanup_region(aig, targets) if targets else set()
        if region:
            cleanup_span = None
            if obs.enabled:
                cleanup_span = obs.begin(
                    "shard_cleanup", "pass", 0, targets=len(targets),
                    region=len(region),
                )
            engine = DACParaRewriter(
                config=shard_subconfig(config),
                library=rewriter.library,
                validate=rewriter.validate,
            )
            cleanup = engine.run(aig, restrict=region)
            result.replacements += cleanup.replacements
            result.attempted += cleanup.attempted
            result.validation_failures += cleanup.validation_failures
            result.revalidated += cleanup.revalidated
            result.conflicts += cleanup.conflicts
            result.aborted_units += cleanup.aborted_units
            result.work_units += cleanup.work_units
            makespan_total += cleanup.makespan_units
            result.passes = max(result.passes, cleanup.passes)
            for name, units in cleanup.stage_units.items():
                stage_units[name] = stage_units.get(name, 0) + units
            if obs.enabled:
                obs.end(cleanup_span, 0, replacements=cleanup.replacements,
                        area=aig.num_ands)

    recovered = sum(
        1 for v, life in former_targets.items()
        if aig.is_dead(v) or aig.life_stamp(v) != life
    )

    result.shard_passes = passes_run
    result.makespan_units = makespan_total
    result.stage_units = stage_units
    result.finish(aig)
    if obs.enabled:
        if recovered:
            obs.count("shard_boundary_recovered_total", recovered)
        if stats.nodes_rebuilt:
            obs.count("shard_splice_nodes_total", stats.nodes_rebuilt)
        if stats.restrash_hits:
            obs.count("shard_splice_restrash_hits_total", stats.restrash_hits)
        for cause, n in stats.as_dict().items():
            if n and cause not in ("restrash_hits", "nodes_rebuilt"):
                obs.count("shard_merge_total", n, outcome=cause)
        obs.end(run_span, 0, area_after=aig.num_ands,
                replacements=result.replacements, passes=passes_run)
    rewriter.last_stats = None
    rewriter.last_validation_stats = None
    rewriter.last_shard_stats = stats
    return result
