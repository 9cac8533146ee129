"""GPU-accelerated rewriting models (DAC'22 / TCAD'23).

Both published systems eliminate locks entirely by splitting rewriting
into (a) a massively parallel enumeration + evaluation of **all** nodes
against the *frozen original* graph and (b) a serial CPU replacement
sweep that applies the stored results.  The decisive property — and
the quality gap DACPara exploits — is that phase (b) trusts **static**
global information: gains computed before any replacement happened.
Replacements whose gain has evaporated (or turned negative) because of
earlier replacements are applied anyway.

Variants:

* ``"dac22"`` (NovelRewrite) — serial *conditional* replacement: a
  stored result is applied only when its cut is still structurally
  usable (leaves alive in the same incarnation), but the stale gain is
  never re-checked.
* ``"tcad23"`` — replaces more aggressively (zero-static-gain results
  are applied too) and relies on structural hashing to merge logically
  equivalent nodes afterwards, which our AIG does implicitly on every
  ``and_``/``replace``.

Timing: phase (a) is simulated on ``workers`` lock-free workers (the
papers use a 9216-core GPU), phase (b) on one worker.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..aig import Aig
from ..config import RewriteConfig, gpu_config
from ..cuts import CutManager, cut_is_stamp_alive
from ..galois import Phase, SimulatedExecutor
from ..library import StructureLibrary, get_library
from ..obs.observer import NULL_OBSERVER, Observer
from .base import Candidate, WorkMeter, apply_candidate
from .columnar import find_best_candidate
from .result import RewriteResult


class StaticRewriter:
    """Static-global-information parallel rewriting (GPU model)."""

    def __init__(
        self,
        config: Optional[RewriteConfig] = None,
        library: Optional[StructureLibrary] = None,
        variant: str = "dac22",
        observer: Optional[Observer] = None,
    ):
        if variant not in ("dac22", "tcad23"):
            raise ValueError(f"unknown GPU variant {variant!r}")
        self.config = config or gpu_config()
        self.library = library or get_library()
        self.variant = variant
        self.name = f"gpu-{variant}"
        self.obs = observer if observer is not None else NULL_OBSERVER

    def run(self, aig: Aig) -> RewriteResult:
        """Rewrite ``aig`` in place with static global information."""
        config = self.config
        obs = self.obs
        # Device and host live on disjoint observer tracks; each keeps
        # its own simulated clock (the makespans are summed, as the
        # papers' pipelines do).
        gpu = SimulatedExecutor(workers=config.workers, observer=obs)
        cpu = SimulatedExecutor(
            workers=1, observer=obs, track_offset=config.workers + 1
        )
        result = RewriteResult.begin(self.name, config.workers, aig)

        run_span = None
        if obs.enabled:
            run_span = obs.begin("run", "run", gpu.now, engine=self.name,
                                 workers=config.workers, area_before=aig.num_ands)
        for pass_index in range(config.passes):
            result.passes += 1
            pass_span = None
            if obs.enabled:
                pass_span = obs.begin("pass", "pass", gpu.now, index=pass_index)
            cutman = CutManager(aig, max_cuts=config.max_cuts)
            stored: Dict[int, Candidate] = {}

            def eval_operator(root: int) -> Generator[Phase, None, None]:
                meter = WorkMeter()
                before = cutman.work
                candidate = find_best_candidate(
                    aig, root, cutman, self.library, config, meter,
                    observer=self.obs,
                )
                yield Phase(locks=(), cost=meter.units + (cutman.work - before) + 1)
                if candidate is not None:
                    stored[root] = candidate
                elif self.variant == "tcad23":
                    zero = self._zero_gain_candidate(aig, root, cutman, config, meter)
                    if zero is not None:
                        stored[root] = zero

            nodes = aig.topo_ands()
            result.attempted += len(nodes)
            gpu.run("gpu-eval", nodes, eval_operator)

            def replace_operator(root: int) -> Generator[Phase, None, None]:
                candidate = stored[root]
                if aig.is_dead(root) or aig.life_stamp(root) != candidate.root_life:
                    return
                yield Phase(locks=(), cost=2 + candidate.structure.num_ands)
                # Conditional on structural usability only -- the stale
                # (static) gain is deliberately not re-checked.
                if not cut_is_stamp_alive(aig, candidate.cut):
                    result.validation_failures += 1
                    return
                apply_candidate(aig, candidate)
                result.replacements += 1

            cpu.run("cpu-replace", sorted(stored), replace_operator)
            if obs.enabled:
                obs.end(pass_span, gpu.now, stored=len(stored))
            if not stored:
                break
        if obs.enabled:
            obs.end(run_span, gpu.now, area_after=aig.num_ands,
                    replacements=result.replacements)
            obs.count("replacements_total", result.replacements)
            obs.count("validation_failures_total", result.validation_failures)

        result.finish(aig)
        result.work_units = (
            gpu.stats.total_useful_units + cpu.stats.total_useful_units
        )
        result.makespan_units = gpu.stats.makespan + cpu.stats.makespan
        result.stage_units = {
            **gpu.stats.units_by_stage_name(),
            **cpu.stats.units_by_stage_name(),
        }
        return result

    def _zero_gain_candidate(
        self,
        aig: Aig,
        root: int,
        cutman: CutManager,
        config: RewriteConfig,
        meter: WorkMeter,
    ) -> Optional[Candidate]:
        """TCAD'23 aggressiveness: accept zero-static-gain rewrites and
        let post-hoc equivalent-node merging find the profit."""
        from dataclasses import replace as dc_replace

        relaxed = dc_replace(config, zero_gain=True)
        return find_best_candidate(aig, root, cutman, self.library, relaxed, meter)
