"""One run of one workload in a fresh process.

``run.py`` launches this file once per run, one at a time: set-up,
one timed ``DACParaRewriter.run``, verification, one JSON record on the
last line of stdout.  The program is handed only the generated circuit,
written with ``write_aig`` and read back with ``read_aiger`` as
``repro rewrite`` would.

Everything the record needs about faults comes from the run's own
public state: ``RewriteResult``, ``rewriter.last_shard_stats``, the
fault counters of each ``ProcessExecutor`` (read when it is closed) and
any ``RuntimeWarning`` the pool raised.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"
SIGNATURE_BITS = 1024


@contextmanager
def timed(phases: Dict[str, float], name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - start


def _cpu() -> Tuple[float, float]:
    """(own, reaped children) user+sys seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, reaped.ru_utime + reaped.ru_stime)


class PoolLedger:
    """Fault counters of every ``ProcessExecutor`` the run closed."""

    FIELDS = ("pool_restarts", "chunk_retries", "chunk_fallbacks",
              "snapshot_bytes_total")

    def __init__(self) -> None:
        self._by_run: Dict[str, Dict[str, int]] = {}

    def __enter__(self) -> "PoolLedger":
        from repro.galois.procpool import ProcessExecutor

        ledger = self._by_run
        original = self._original = ProcessExecutor.close

        def close(executor, *args, **kwargs):
            row = {f: getattr(executor, f) for f in PoolLedger.FIELDS}
            row["quarantined"] = len(executor.quarantined)
            ledger[executor.run_id] = row
            return original(executor, *args, **kwargs)

        ProcessExecutor.close = close
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.galois.procpool import ProcessExecutor

        ProcessExecutor.close = self._original

    def totals(self) -> Dict[str, int]:
        out = dict.fromkeys(self.FIELDS + ("quarantined",), 0)
        for row in self._by_run.values():
            for field, n in row.items():
                out[field] += n
        return out


def verify_output(aig, signature: List[int], seed: int,
                  phases: Dict[str, float]) -> List[str]:
    """Why the rewritten ``aig`` is not acceptable (empty = it is):
    structural invariants, then the 1024-bit random-simulation
    signature against the one taken from the input file."""
    from repro.aig import check, random_simulation
    from repro.errors import AigError

    failures = []
    with timed(phases, "verify.check_s"):
        try:
            check(aig)
        except AigError as exc:
            failures.append(f"check: {exc}")
    with timed(phases, "verify.sim_s"):
        if random_simulation(aig, SIGNATURE_BITS, seed) != signature:
            failures.append("signature_mismatch")
    return failures


def degradations(result, rewriter, pool: Dict[str, int],
                 caught: List[warnings.WarningMessage]) -> List[str]:
    """The degradation ledger: a run that finished but not the way its
    configuration says counts as failed."""
    out = []
    if result.shard_fallback:
        out.append(f"shard_fallback: {result.shard_fallback}")
    for field in ("pool_restarts", "chunk_fallbacks", "quarantined"):
        if pool[field]:
            out.append(f"{field}: {pool[field]}")
    shard_stats = rewriter.last_shard_stats
    if shard_stats is not None and shard_stats.failed:
        out.append(f"shard_merge_failed: {shard_stats.failed}")
    out.extend(f"warning: {w.message}" for w in caught
               if issubclass(w.category, RuntimeWarning))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, observer, result, rewriter, pool: Dict[str, int],
                  worker_cpu_s: float) -> Dict[str, Optional[float]]:
    """The traced run's per-layer numbers (those one child can know)."""
    from spans import CLEANUP_RUN, RUN_TOTAL

    spans = tracer.summary()
    out: Dict[str, Optional[float]] = {}
    for name, row in spans.items():
        if name not in (RUN_TOTAL, CLEANUP_RUN):
            out[name] = None if row is None else row["self_s"]
    run_row, cleanup_row = spans[RUN_TOTAL], spans[CLEANUP_RUN]
    if run_row is None:
        out.update({"run.total_s": None, "run.unattributed_s": None,
                    "run.unattributed_ratio": None, CLEANUP_RUN: None})
    else:
        total = run_row["inclusive_s"]
        loose = run_row["self_s"] + cleanup_row["self_s"]
        out.update({"run.total_s": total, "run.unattributed_s": loose,
                    "run.unattributed_ratio": _ratio(loose, total),
                    CLEANUP_RUN: cleanup_row["inclusive_s"]})
    fresh = spans["cuts.fresh_cuts_s"]
    out["cuts.fresh_cuts_calls"] = None if fresh is None else fresh["calls"]

    counts = observer.counts
    if result.shards == 0:
        hits = counts.get("cut_tt_cache_hits_total", 0)
        misses = counts.get("cut_tt_cache_misses_total", 0)
        vec_pairs = counts.get("enum_vectorized_pairs_total", 0)
        scalar_pairs = counts.get("enum_scalar_fallback_total", 0)
        scalar_evals = counts.get("eval_scalar_fallback_total", 0)
        out.update({
            "cuts.merge_pairs": vec_pairs + scalar_pairs,
            "cuts.scalar_fallback_pairs": scalar_pairs,
            "cuts.tt_cache_hit_ratio": _ratio(hits, hits + misses),
            "rewrite.eval_candidates": scalar_evals + counts.get(
                "eval_vectorized_candidates_total", 0),
            "rewrite.eval_scalar_fallback": scalar_evals,
        })
    else:
        # A sharded run's pipelines live in pool workers and in the
        # observer-less cleanup engine: their kernel counters never
        # reach this observer, so they are unknown here, not zero.
        out.update(dict.fromkeys(
            ("cuts.merge_pairs", "cuts.scalar_fallback_pairs",
             "cuts.tt_cache_hit_ratio", "rewrite.eval_candidates",
             "rewrite.eval_scalar_fallback")))
    replays = [spans[f"sched.replay_{s}_s"] for s in ("enum", "eval", "replace")]
    out.update({
        "partition.boundary_frozen":
            counts.get("shard_boundary_frozen_total", 0),
        "partition.shards_planned": result.shards,
        "shards.cleanup_region_nodes":
            counts.get("shard_cleanup_region_nodes", 0),
        "sched.stage_runs":
            None if None in replays else sum(r["calls"] for r in replays),
        "validation.failures": result.validation_failures,
        "validation.reenumerated": result.revalidated,
        # RewriteResult.attempted only counts the last worklist; every
        # attempt ends as a replacement or a validation failure.
        "replace.commit_ratio": _ratio(
            result.replacements,
            result.replacements + result.validation_failures),
        "sched.conflicts": result.conflicts,
        "sched.aborted_unit_ratio": _ratio(
            result.aborted_units, result.work_units + result.aborted_units),
        "procpool.bytes_shipped": pool["snapshot_bytes_total"],
        "procpool.worker_cpu_s": worker_cpu_s,
        "procpool.chunk_retries": pool["chunk_retries"],
        "procpool.pool_restarts": pool["pool_restarts"],
        "procpool.chunk_fallbacks": pool["chunk_fallbacks"],
        "procpool.quarantined": pool["quarantined"],
    })

    deltas = observer.observed.get("snapshot_delta_ratio", {}).values()
    out["snapshot.delta_ratio"] = _ratio(
        sum(c[1] for c in deltas), sum(c[0] for c in deltas))

    # Worker-side wall of each shard, grouped by seam-rotation pass.
    passes = observer.observed.get("shard_wall_seconds", {}).values()
    out["shards.worker_wall_sum_s"] = sum(c[1] for c in passes)
    out["shards.worker_wall_max_s"] = sum(c[2] for c in passes)
    out["shards.imbalance_ratio"] = max(
        (_ratio(c[2], c[1] / c[0]) for c in passes), default=0.0)
    merge = rewriter.last_shard_stats
    out["shards.nodes_rebuilt"] = merge.nodes_rebuilt if merge else 0
    out["shards.restrash_hits"] = merge.restrash_hits if merge else 0
    return out


def run_once(workload, seed: int, trace: bool, jobs: int,
             spawned_at: float, reference: bool = False,
             phases: Optional[Dict[str, float]] = None):
    """Set up, time one rewrite, verify.  Returns ``(record, aig)``;
    ``reference`` swaps in the in-process configuration (the run every
    parallel ratio is quoted against).  ``phases`` carries phase times
    the caller already spent (importing the workload table)."""
    phases = {} if phases is None else phases
    with timed(phases, "setup.import_s"):
        from repro.aig import random_simulation, read_aiger, write_aig
        from repro.core.dacpara import DACParaRewriter
        from repro.library import get_library
        from repro.npn import ensure_canon_lut

        from circuits import inproc_config
        from spans import CountingObserver, Tracer
    with timed(phases, "library.build_s"):
        library = get_library()
    with timed(phases, "npn.lut_build_s"):
        ensure_canon_lut()
    with timed(phases, "setup.generate_s"):
        generated = workload.build(seed)
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}.aig"
    try:
        with timed(phases, "io.write_s"):
            write_aig(generated, path)
        del generated
        with timed(phases, "io.read_s"):
            aig = read_aiger(path)
    finally:
        path.unlink(missing_ok=True)
    signature = random_simulation(aig, SIGNATURE_BITS, seed)
    make_config = inproc_config if reference else workload.config
    observer = CountingObserver() if trace else None
    rewriter = DACParaRewriter(
        config=make_config(jobs), library=library, observer=observer)
    tracer = Tracer() if trace else None
    setup_s = time.time() - spawned_at

    with PoolLedger() as ledger, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cpu0 = _cpu()
        start = time.perf_counter()
        if tracer is None:
            result = rewriter.run(aig)
        else:
            with tracer:
                result = rewriter.run(aig)
        wall = time.perf_counter() - start
        cpu1 = _cpu()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pool = ledger.totals()
    worker_cpu_s = cpu1[1] - cpu0[1]

    failures = verify_output(aig, signature, seed, phases)
    failures += degradations(result, rewriter, pool, caught)

    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "reference": reference, "jobs": jobs, "failures": failures,
        "wall_s": wall,
        "nodes_per_s": result.area_before / wall,
        "cpu_s": (cpu1[0] - cpu0[0]) + worker_cpu_s,
        "area_reduction_pct": result.area_reduction_pct,
        "depth_after": result.delay_after,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "area_before": result.area_before, "area_after": result.area_after,
        "depth_before": result.delay_before,
        "replacements": result.replacements,
        "phases": phases, "pool": pool,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(
            tracer, observer, result, rewriter, pool, worker_cpu_s)
        record["untraced"] = tracer.untraced
        record["spans"] = tracer.dump()
    return record, aig


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    phases: Dict[str, float] = {}
    with timed(phases, "setup.import_s"):
        from circuits import workload_named
    record, _aig = run_once(
        workload_named(args.workload), args.seed, bool(args.trace),
        args.jobs, args.spawned_at, reference=args.reference, phases=phases)
    spans = record.pop("spans", None)
    if spans is not None and args.spans_out is not None:
        args.spans_out.parent.mkdir(parents=True, exist_ok=True)
        args.spans_out.write_text(json.dumps(spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
