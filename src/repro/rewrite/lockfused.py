"""The ICCAD'18 baseline: fused-operator fine-grained parallel rewriting.

Models Possani et al.'s design faithfully at the level the paper
critiques it: **one** Galois operator per node performs enumeration,
evaluation and replacement, acquiring exclusive locks progressively
(node + cut region during enumeration, then MFFC, then fanouts as the
evaluation's sharing probes touch them) and holding everything until
the replacement commits.  Because the evaluation — over 90 % of the
work — runs *inside* the locked region:

* neighbours whose lock regions overlap a running activity abort and
  retry after it finishes (serialization on high-fanout circuits);
* an activity that conflicts late loses its enumeration and partial
  evaluation work (the paper's Fig. 2 waste).

No replacement-time validation is needed: the locks guarantee the
activity's view of the graph is exclusive from enumeration to commit.
"""

from __future__ import annotations

from typing import Generator, Optional, Set

from ..aig import Aig, mffc
from ..config import RewriteConfig, iccad18_config
from ..cuts import CutManager
from ..galois import Phase, make_executor, warn_unused_jobs
from ..library import StructureLibrary, get_library
from ..obs.observer import NULL_OBSERVER, Observer
from .base import WorkMeter, apply_candidate
from .columnar import find_best_candidate
from .result import RewriteResult


class LockFusedRewriter:
    """Fine-grained parallel rewriting with a single fused operator."""

    name = "iccad18"

    def __init__(
        self,
        config: Optional[RewriteConfig] = None,
        library: Optional[StructureLibrary] = None,
        observer: Optional[Observer] = None,
    ):
        self.config = config or iccad18_config()
        self.library = library or get_library()
        self.obs = observer if observer is not None else NULL_OBSERVER

    def run(self, aig: Aig) -> RewriteResult:
        """Rewrite ``aig`` in place with the fused parallel operator."""
        config = self.config
        obs = self.obs
        warn_unused_jobs(config)
        executor = make_executor(config.executor, config.workers, observer=obs)
        result = RewriteResult.begin(self.name, config.workers, aig)
        cutman = CutManager(aig, max_cuts=config.max_cuts)
        counters = {"replacements": 0, "saved": 0}
        operator = self._make_operator(aig, cutman, config, counters)

        run_span = None
        if obs.enabled:
            run_span = obs.begin("run", "run", executor.now, engine=self.name,
                                 workers=config.workers, area_before=aig.num_ands)
        for pass_index in range(config.passes):
            result.passes += 1
            before = counters["replacements"]
            nodes = aig.topo_ands()
            result.attempted += len(nodes)
            pass_span = None
            if obs.enabled:
                pass_span = obs.begin("pass", "pass", executor.now,
                                      index=pass_index)
            executor.run("fused", nodes, operator)
            if obs.enabled:
                obs.end(pass_span, executor.now,
                        replacements=counters["replacements"] - before)
            if counters["replacements"] == before:
                break
        if obs.enabled:
            obs.end(run_span, executor.now, area_after=aig.num_ands,
                    replacements=counters["replacements"])
            obs.count("replacements_total", counters["replacements"])

        result.replacements = counters["replacements"]
        return result.finish(aig, executor.stats)

    def _make_operator(self, aig: Aig, cutman: CutManager, config: RewriteConfig,
                       counters: dict):
        library = self.library

        def operator(root: int) -> Generator[Phase, None, None]:
            if aig.is_dead(root):
                return
            # Enumeration: locks are acquired progressively while the
            # recursion touches the graph, so a conflict at the end of
            # the stage throws the enumeration work away.
            before = cutman.work
            cuts = cutman.fresh_cuts(root)
            enum_cost = cutman.work - before + 1
            enum_region: Set[int] = {root}
            for cut in cuts:
                enum_region.update(cut.leaves)
            yield Phase(locks=(), cost=enum_cost)
            yield Phase(locks=enum_region, cost=0)
            # Evaluation, still holding locks; the sharing probes pull in
            # the MFFC first and the fanout neighbourhood later, so the
            # lock set keeps growing while expensive work accumulates —
            # a late conflict loses everything (the paper's Fig. 2).
            meter = WorkMeter()
            candidate = find_best_candidate(
                aig, root, cutman, library, config, meter, observer=self.obs
            )
            eval_cost = meter.units + 1
            yield Phase(locks=mffc(aig, root), cost=eval_cost // 2)
            yield Phase(
                locks=set(aig.fanouts(root)), cost=eval_cost - eval_cost // 2
            )
            if candidate is None:
                return
            yield Phase(locks=(), cost=2 + candidate.structure.num_ands)
            saved = apply_candidate(aig, candidate)
            counters["replacements"] += 1
            counters["saved"] += saved

        return operator
