"""The DACPara driver (Algorithm 1).

Per pass: divide the live AND nodes into per-level worklists, then for
each worklist run the three operators — parallel cut enumeration,
lock-free parallel evaluation, validated parallel replacement — with a
barrier between stages (and hence between worklists).

The per-worklist barrier structure is also why very deep circuits (the
paper's ``sqrt``/``hyp``/``div``) parallelize less well here than wide
ones: many small lists leave workers idle, exactly the slowdown the
paper reports for those benchmarks.
"""

from __future__ import annotations

from typing import Optional, Set

from ..aig import Aig
from ..cuts import CutManager
from ..galois import make_executor, warn_unused_jobs
from ..library import StructureLibrary, get_library
from ..obs.observer import NULL_OBSERVER, Observer
from ..rewrite.result import RewriteResult
from ..config import RewriteConfig, dacpara_config
from .operators import StageContext, make_replace_operator
from .partition import node_dividing


class DACParaRewriter:
    """Divide-and-conquer parallel logic rewriting."""

    name = "dacpara"

    def __init__(
        self,
        config: Optional[RewriteConfig] = None,
        library: Optional[StructureLibrary] = None,
        validate: bool = True,
        partition: str = "level",
        observer: Optional[Observer] = None,
    ):
        if partition not in ("level", "single"):
            raise ValueError(f"unknown partition mode {partition!r}")
        self.config = config or dacpara_config()
        self.library = library or get_library()
        self.validate = validate  # False = ablation (static information)
        # 'level' = the paper's nodeDividing; 'single' = ablation: one
        # global worklist, maximizing staleness between eval and replace.
        self.partition = partition
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.last_stats = None  # ExecutionStats of the most recent run
        self.last_validation_stats = None
        self.last_shard_stats = None  # ShardMergeStats of a sharded run
        self._shard_fallback = ""  # why the last run ran unsharded

    def run(self, aig: Aig, restrict: Optional[Set[int]] = None) -> RewriteResult:
        """Rewrite ``aig`` in place (Algorithm 1); returns the record.

        With ``config.shards > 1`` the graph is first split into
        TFI/TFO-disjoint regions and the whole pipeline runs per shard
        (:mod:`repro.core.shards`); graphs that do not decompose —
        single cone, too small, fewer cones than shards — fall back to
        the unsharded level pipeline below, recording why in
        ``result.shard_fallback``.

        ``restrict`` limits the pipeline to a subset of AND vars: only
        members are enumerated/evaluated/replaced (their cuts may still
        reach outside the set).  The boundary cleanup pass uses it to
        re-run the pipeline over just the former-seam neighborhood;
        sharding is skipped for restricted runs.
        """
        self.last_shard_stats = None
        self._shard_fallback = ""
        if (
            self.config.shards > 1
            and self.partition == "level"
            and restrict is None
        ):
            from .shards import run_sharded

            sharded = run_sharded(self, aig)
            if sharded is not None:
                return sharded
        config = self.config
        obs = self.obs
        warn_unused_jobs(config)
        executor = make_executor(config.executor, config.workers, observer=obs)
        result = RewriteResult.begin(self.name, config.workers, aig)
        cutman = CutManager(aig, max_cuts=config.max_cuts)
        ctx = StageContext(
            aig=aig, cutman=cutman, library=self.library, config=config,
            validate=self.validate, observer=obs,
        )
        replace_op = make_replace_operator(ctx)
        levels_before = aig.level_updates

        run_span = None
        if obs.enabled:
            run_span = obs.begin(
                "run", "run", executor.now, engine=self.name,
                workers=config.workers, area_before=aig.num_ands,
            )
        try:
            for pass_index in range(config.passes):
                result.passes += 1
                replacements_before = ctx.replacements
                if self.partition == "level":
                    worklists = node_dividing(aig)
                else:
                    worklists = [aig.topo_ands()]
                pass_span = None
                if obs.enabled:
                    pass_span = obs.begin(
                        "pass", "pass", executor.now, index=pass_index,
                        worklists=len(worklists),
                    )
                for level, worklist in enumerate(worklists, start=1):
                    live = [
                        v for v in worklist
                        if not aig.is_dead(v)
                        and (restrict is None or v in restrict)
                    ]
                    if not live:
                        continue
                    ctx.reset_round()
                    wl_span = None
                    if obs.enabled:
                        wl_span = obs.begin(
                            "worklist", "worklist", executor.now,
                            level=level if self.partition == "level" else 0,
                            size=len(live),
                        )
                        obs.observe("worklist_occupancy", len(live))
                    # The two read stages precompute the whole worklist
                    # as one columnar batch and replay it through the
                    # scheduler; replacement mutates root by root.
                    executor.run_enum("enum", live, ctx)
                    executor.run_eval("eval", live, ctx)
                    pending = [v for v in live if ctx.prep_info.get(v) is not None]
                    if pending:
                        executor.run("replace", pending, replace_op)
                    if obs.enabled:
                        obs.end(wl_span, executor.now, pending=len(pending))
                if obs.enabled:
                    obs.end(pass_span, executor.now,
                            replacements=ctx.replacements - replacements_before)
                if ctx.replacements == replacements_before:
                    break
        finally:
            executor.close()
        if obs.enabled:
            obs.end(run_span, executor.now, area_after=aig.num_ands,
                    replacements=ctx.replacements)
            for cause, n in ctx.validation_stats.as_dict().items():
                if n:
                    obs.count("validation_causes_total", n, cause=cause)
            if cutman.vec_pairs:
                obs.count("enum_vectorized_pairs_total", cutman.vec_pairs)
                obs.count("enum_kernel_calls_total", cutman.kernel_calls)
            if aig.level_updates > levels_before:
                obs.count("level_updates_total",
                          aig.level_updates - levels_before)

        self.last_stats = executor.stats
        self.last_validation_stats = ctx.validation_stats
        result.replacements = ctx.replacements
        ctx.reset_round()  # bank the last round's attempts
        result.attempted = ctx.attempted
        result.validation_failures = ctx.validation_failures
        result.revalidated = ctx.validation_stats.reenumerated
        result.shard_fallback = self._shard_fallback
        return result.finish(aig, executor.stats)
