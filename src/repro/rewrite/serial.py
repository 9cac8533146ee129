"""Serial DAG-aware AIG rewriting — the ABC ``rewrite`` model.

One topological sweep per pass: for each node, enumerate 4-input cuts,
canonicalize, retrieve library structures, evaluate with logical
sharing on the **latest** graph, and apply the best positive-gain
replacement immediately.  This is the quality reference all parallel
engines are compared against (paper Table 2, "ABC (1 Thread)").
"""

from __future__ import annotations

from typing import Optional

from ..aig import Aig
from ..config import RewriteConfig, abc_rewrite_config
from ..cuts import CutManager
from ..library import StructureLibrary, get_library
from ..obs.observer import NULL_OBSERVER, Observer
from .base import WorkMeter, apply_candidate
from .columnar import find_best_candidate
from .result import RewriteResult


class SerialRewriter:
    """The ABC ``rewrite`` reference engine."""

    name = "abc-serial"

    def __init__(
        self,
        config: Optional[RewriteConfig] = None,
        library: Optional[StructureLibrary] = None,
        observer: Optional[Observer] = None,
    ):
        self.config = config or abc_rewrite_config()
        self.library = library or get_library()
        self.obs = observer if observer is not None else NULL_OBSERVER

    def run(self, aig: Aig) -> RewriteResult:
        """Rewrite ``aig`` in place; returns the result record."""
        config = self.config
        result = RewriteResult.begin(self.name, 1, aig)
        cutman = CutManager(aig, max_cuts=config.max_cuts)
        meter = WorkMeter()
        obs = self.obs

        def now() -> int:
            # The serial clock: one worker, so elapsed time IS the work
            # performed so far (evaluation units + cut-merge units).
            return meter.units + cutman.work

        run_span = None
        if obs.enabled:
            run_span = obs.begin("run", "run", now(), engine=self.name,
                                 workers=1, area_before=aig.num_ands)
        for pass_index in range(config.passes):
            result.passes += 1
            pass_span = sweep_span = None
            start = now()
            attempted_before = result.attempted
            if obs.enabled:
                pass_span = obs.begin("pass", "pass", start, index=pass_index)
                sweep_span = obs.begin("sweep", "stage", start)
            changed = self._one_pass(aig, cutman, meter, result)
            if obs.enabled:
                attempted = result.attempted - attempted_before
                obs.end(sweep_span, now(), activities=attempted,
                        committed=attempted, conflicts=0,
                        useful_units=now() - start, aborted_units=0)
                obs.end(pass_span, now())
            if not changed:
                break
        if obs.enabled:
            obs.end(run_span, now(), area_after=aig.num_ands,
                    replacements=result.replacements)
            obs.count("committed_total", result.attempted, stage="sweep")
            obs.count("useful_units_total", now(), stage="sweep")
            obs.count("replacements_total", result.replacements)
        result.finish(aig)
        result.work_units = meter.units + cutman.work
        result.makespan_units = result.work_units  # one worker
        result.stage_units = {
            "enumeration": cutman.work,
            "evaluation+replacement": meter.units,
        }
        return result

    def _one_pass(
        self, aig: Aig, cutman: CutManager, meter: WorkMeter, result: RewriteResult
    ) -> bool:
        changed = False
        for root in aig.topo_ands():
            if aig.is_dead(root):
                continue
            result.attempted += 1
            candidate = find_best_candidate(
                aig, root, cutman, self.library, self.config, meter,
                observer=self.obs,
            )
            if candidate is None:
                continue
            saved = apply_candidate(aig, candidate)
            if saved != 0 or candidate.gain == 0:
                result.replacements += 1
                changed = True
        return changed
