"""The ladder's metric catalogue: every statistic is registered here,
once, before anything is measured.

The driver emits values only through :meth:`Catalogue.checked`, which
refuses an undeclared name, and ``BENCHMARK.json`` is generated from
this catalogue and the workload table (``run.py --manifest``).

``moves`` records, before any measurement, which end-to-end metric a
layer metric is expected to move and on which workload — the reading
guide for a later change that claims a gain from one layer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

END_TO_END = "end_to_end"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    layer: str  # END_TO_END or the module the number belongs to
    moves: str
    # End-to-end only: share of the parent's median by which the metric
    # may worsen before a change counts as a regression.
    bound: Optional[float] = None
    # Self time of a span inside the timed run: these and
    # run.unattributed_s sum to run.total_s.
    in_sum: bool = False
    # False = carried by another field of the contract's result line
    # (failed_runs/runs are its `failed`/`attempted` keys).
    in_manifest: bool = True
    # End-to-end timings only (calibrate.py): a child's corrected value
    # is raw * speed_factor ** drift_power, and `best` reports the best
    # corrected child of the invocation instead of the median one.
    drift_power: int = 0
    best: bool = False


class Catalogue:
    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def register(self, name: str, unit: str, better: str, layer: str,
                 moves: str, **extra) -> None:
        if not NAME_RE.match(name) or not UNIT_RE.match(unit):
            raise ValueError(f"bad metric name/unit: {name!r} / {unit!r}")
        if better not in ("lower", "higher"):
            raise ValueError(f"{name}: better must be lower or higher")
        if name in self._metrics:
            raise ValueError(f"metric {name!r} registered twice")
        self._metrics[name] = Metric(name, unit, better, layer, moves, **extra)

    def __getitem__(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(f"undeclared metric {name!r}") from None

    def end_to_end(self) -> List[Metric]:
        return [m for m in self._metrics.values() if m.layer == END_TO_END]

    def per_layer(self) -> List[Metric]:
        return [m for m in self._metrics.values() if m.layer != END_TO_END]

    def summed(self) -> List[str]:
        return [m.name for m in self._metrics.values() if m.in_sum]

    def checked(self, values: Mapping[str, object]) -> Dict[str, object]:
        """``values`` unchanged, after refusing any undeclared name."""
        for name in values:
            self[name]
        return dict(values)


CATALOGUE = Catalogue()
_reg = CATALOGUE.register

# -- end to end (per workload; timings are drift-corrected, see run.py) ---
_reg("nodes_per_s", "nodes/s", "higher", END_TO_END, bound=0.25,
     drift_power=-1, best=True,
     moves="area_before / wall of DACParaRewriter.run")
_reg("cpu_s", "s", "lower", END_TO_END, bound=0.25, drift_power=1, best=True,
     moves="user+sys CPU of the child and its reaped pool workers over "
           "the timed call; keeps a faster run that burns more CPU visible")
_reg("area_reduction_pct", "%", "higher", END_TO_END, bound=0.08,
     moves="RewriteResult.area_reduction_pct; identical across repeats")
_reg("depth_after", "levels", "lower", END_TO_END, bound=0.05,
     moves="RewriteResult.delay_after")
_reg("peak_rss_mb", "MB", "lower", END_TO_END, bound=0.25,
     moves="ru_maxrss of the fresh child right after the timed call")
_reg("setup_s", "s", "lower", END_TO_END, bound=0.25, drift_power=1,
     moves="child spawn to ready-to-rewrite: interpreter, imports, library, "
           "NPN LUT, generate, write_aig, read_aiger, input signature")
_reg("failed_runs", "count", "lower", END_TO_END, bound=0.0, in_manifest=False,
     moves="runs that raised, failed verification, disagreed with a sibling "
           "repeat, or degraded; the result line's `failed`")
_reg("runs", "count", "higher", END_TO_END, in_manifest=False,
     moves="runs attempted; the result line's `attempted`")

# -- core.partition ------------------------------------------------------
_SHARDED = "nodes_per_s on wide17k_sharded only (about 0 elsewhere)"
_reg("partition.node_dividing_s", "s", "lower", "core.partition", in_sum=True,
     moves="nodes_per_s on every workload (small)")
_reg("partition.plan_regions_s", "s", "lower", "core.partition", in_sum=True,
     moves=_SHARDED)
_reg("partition.cleanup_region_s", "s", "lower", "core.partition",
     in_sum=True, moves=_SHARDED)
_reg("partition.boundary_frozen", "count", "lower", "core.partition",
     moves="area_reduction_pct on wide17k_sharded")
_reg("partition.shards_planned", "count", "higher", "core.partition",
     moves=_SHARDED)

# -- cuts ----------------------------------------------------------------
_WIDE = "nodes_per_s and cpu_s on wide17k_inproc"
_DEEP = "nodes_per_s on deep9k_inproc"
_reg("cuts.merge_kernel_s", "s", "lower", "cuts", in_sum=True,
     moves=_WIDE + "; peak_rss_mb there (pair grid on wide levels)")
_reg("cuts.enum_harvest_s", "s", "lower", "cuts", in_sum=True, moves=_WIDE)
_reg("cuts.install_s", "s", "lower", "cuts", in_sum=True, moves=_WIDE)
_reg("cuts.eval_harvest_s", "s", "lower", "cuts", in_sum=True, moves=_WIDE)
_reg("cuts.fresh_cuts_s", "s", "lower", "cuts", in_sum=True, moves=_DEEP)
_reg("cuts.fresh_cuts_calls", "count", "lower", "cuts", moves=_DEEP)
_reg("cuts.merge_pairs", "count", "lower", "cuts", moves=_WIDE)
_reg("cuts.scalar_fallback_pairs", "count", "lower", "cuts", moves=_WIDE)
_reg("cuts.tt_cache_hit_ratio", "ratio", "higher", "cuts", moves=_WIDE)

# -- rewrite -------------------------------------------------------------
_reg("rewrite.eval_kernel_s", "s", "lower", "rewrite", in_sum=True,
     moves=_WIDE)
_reg("rewrite.apply_s", "s", "lower", "rewrite", in_sum=True, moves=_DEEP)
_reg("rewrite.eval_candidates", "count", "lower", "rewrite", moves=_WIDE)
_reg("rewrite.eval_scalar_fallback", "count", "lower", "rewrite",
     moves=_WIDE)

# -- core.validation / the replace stage ---------------------------------
_AREA = "area_reduction_pct on every workload; " + _DEEP
_reg("validation.validate_s", "s", "lower", "core.validation", in_sum=True,
     moves=_DEEP)
_reg("validation.failures", "count", "lower", "core.validation", moves=_AREA)
_reg("validation.reenumerated", "count", "lower", "core.validation",
     moves=_AREA)
_reg("replace.commit_ratio", "ratio", "higher", "core.validation",
     moves=_AREA)

# -- galois.simsched -----------------------------------------------------
_REPLAY = "nodes_per_s on wide17k_inproc and deep9k_inproc"
for _stage in ("enum", "eval", "replace"):
    _reg(f"sched.replay_{_stage}_s", "s", "lower", "galois.simsched",
         in_sum=True, moves=_REPLAY)
_reg("sched.stage_runs", "count", "lower", "galois.simsched", moves=_REPLAY)
_reg("sched.conflicts", "count", "lower", "galois.simsched", moves=_REPLAY)
_reg("sched.aborted_unit_ratio", "ratio", "lower", "galois.simsched",
     moves=_REPLAY)

# -- galois.procpool -----------------------------------------------------
_PROC = "nodes_per_s and cpu_s on wide17k_process"
_SHIP = "nodes_per_s and cpu_s on wide17k_sharded"
_FAULT = "failed_runs; reads 0 on the in-process workloads"
_reg("procpool.run_enum_s", "s", "lower", "galois.procpool", in_sum=True,
     moves=_PROC)
_reg("procpool.run_eval_s", "s", "lower", "galois.procpool", in_sum=True,
     moves=_PROC)
_reg("procpool.run_shards_s", "s", "lower", "galois.procpool", in_sum=True,
     moves=_SHIP)
_reg("procpool.bytes_shipped", "bytes", "lower", "galois.procpool",
     moves=_PROC)
_reg("procpool.worker_cpu_s", "s", "lower", "galois.procpool",
     moves="cpu_s on wide17k_process and wide17k_sharded")
_reg("procpool.chunk_retries", "count", "lower", "galois.procpool",
     moves=_FAULT)
_reg("procpool.pool_restarts", "count", "lower", "galois.procpool",
     moves=_FAULT)
_reg("procpool.chunk_fallbacks", "count", "lower", "galois.procpool",
     moves=_FAULT)
_reg("procpool.quarantined", "count", "lower", "galois.procpool",
     moves=_FAULT)
_reg("procpool.vs_inproc_ratio", "ratio", "lower", "galois.procpool",
     moves="median process wall / one in-process run of the same circuit; "
           "decides whether per-level process mode earns its place")

# -- aig.snapshot --------------------------------------------------------
_reg("snapshot.capture_s", "s", "lower", "aig.snapshot", in_sum=True,
     moves="nodes_per_s on wide17k_process; peak_rss_mb on both process "
           "workloads")
_reg("snapshot.delta_s", "s", "lower", "aig.snapshot", in_sum=True,
     moves="nodes_per_s on wide17k_process")
_reg("snapshot.delta_ratio", "ratio", "lower", "aig.snapshot",
     moves="nodes_per_s on wide17k_process")

# -- core.shards ---------------------------------------------------------
_reg("shards.splice_s", "s", "lower", "core.shards", in_sum=True, moves=_SHIP)
_reg("shards.cleanup_run_s", "s", "lower", "core.shards",
     moves=_SHIP + " (inclusive: the nested run(restrict=...), whose own "
           "layer spans are also counted under their layers)")
_reg("shards.cleanup_region_nodes", "count", "lower", "core.shards",
     moves=_SHIP)
_reg("shards.worker_wall_sum_s", "s", "lower", "core.shards",
     moves="cpu_s on wide17k_sharded")
_reg("shards.worker_wall_max_s", "s", "lower", "core.shards",
     moves="procpool.run_shards_s: the slowest shard of each pass sets it")
_reg("shards.imbalance_ratio", "ratio", "lower", "core.shards",
     moves="bounds what extra cores can buy on wide17k_sharded")
_reg("shards.nodes_rebuilt", "count", "lower", "core.shards", moves=_SHIP)
_reg("shards.restrash_hits", "count", "higher", "core.shards", moves=_SHIP)
_reg("shards.vs_inproc_ratio", "ratio", "higher", "core.shards",
     moves="one in-process run of the same circuit / median sharded wall")

# -- set-up layers (outside the timed run) -------------------------------
_SETUP = "setup_s on every workload"
_reg("setup.import_s", "s", "lower", "setup", moves=_SETUP)
_reg("setup.generate_s", "s", "lower", "setup", moves=_SETUP)
_reg("library.build_s", "s", "lower", "library", moves=_SETUP)
_reg("npn.lut_build_s", "s", "lower", "npn", moves=_SETUP)
_reg("io.write_s", "s", "lower", "aig.io_aiger", moves=_SETUP)
_reg("io.read_s", "s", "lower", "aig.io_aiger", moves=_SETUP)

# -- verification (outside every end-to-end timing) ----------------------
_VERIFY = "none: reported so nobody is tempted to trim it"
_reg("verify.check_s", "s", "lower", "aig.check", moves=_VERIFY)
_reg("verify.sim_s", "s", "lower", "aig.simulate", moves=_VERIFY)

# -- run totals ----------------------------------------------------------
_reg("run.total_s", "s", "lower", "run", moves="nodes_per_s (traced run)")
_reg("run.unattributed_s", "s", "lower", "run",
     moves="time inside DACParaRewriter.run that no layer span covers")
_reg("run.unattributed_ratio", "ratio", "lower", "run",
     moves="above 0.10 the layer split no longer explains the run")
_reg("trace.overhead_ratio", "ratio", "lower", "run",
     moves="traced wall / untraced median wall")

# -- the benchmark's own yardstick (calibrate.py) ------------------------
_DRIFT = "none: the machine's state, divided out of every end-to-end timing"
_reg("calibration.slice_s", "s", "lower", "calibrate", moves=_DRIFT)
_reg("calibration.speed_factor", "ratio", "higher", "calibrate", moves=_DRIFT)


def manifest_entries() -> Dict[str, List[dict]]:
    """The ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json."""
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in CATALOGUE.end_to_end() if m.in_manifest
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in CATALOGUE.per_layer()
        ],
    }
