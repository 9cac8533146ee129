"""The DACPara operators (Sections 4.2-4.4).

The division of labour is the paper's central idea:

* **enumeration** — short, locks the node and its cut region: the
  replay generator of :func:`repro.rewrite.columnar.run_enum_batched`,
  whose per-root step (cache answers, retries) is :func:`enum_phase`;
* **evaluation** — the >90 %-of-runtime stage, *entirely lock-free*
  (reads the graph, writes only its own ``prepInfo`` slot): its
  operator is the replay generator of
  :func:`repro.rewrite.columnar.run_eval_batched`, which scores the
  whole worklist as one batch first;
* **replacement** — a cautious Galois generator (see
  :mod:`repro.galois.activity`) that validates the stored result
  against the latest graph, then holds locks only for the short
  splice-in.

Shared mutable state lives in :class:`StageContext`; the simulated
scheduler runs each activity atomically at pop, so generator
resumptions are serialized and plain Python containers are safe here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Set

from ..aig import Aig, mffc
from ..cuts import CutManager
from ..galois import Phase
from ..library import StructureLibrary
from ..obs.observer import NULL_OBSERVER, Observer
from ..rewrite.base import WorkMeter, apply_candidate
from ..config import RewriteConfig
from .prep_info import PrepInfo
from .validation import ValidationStats, validate_candidate


@dataclass
class StageContext:
    """Everything the three operators share for one circuit run."""

    aig: Aig
    cutman: CutManager
    library: StructureLibrary
    config: RewriteConfig
    prep_info: PrepInfo = field(default_factory=PrepInfo)
    validation_stats: ValidationStats = field(default_factory=ValidationStats)
    meter: WorkMeter = field(default_factory=WorkMeter)
    replacements: int = 0
    validation_failures: int = 0
    nodes_saved: int = 0
    validate: bool = True  # False = ablation: trust static prepInfo blindly
    observer: Observer = NULL_OBSERVER
    attempted: int = 0  # roots evaluated, banked as each round closes

    def reset_round(self) -> None:
        """Close the current worklist round and open a fresh one."""
        self.attempted += self.prep_info.stored + self.prep_info.skipped
        self.prep_info = PrepInfo()


def enum_phase(cutman: CutManager, root: int) -> Phase:
    """The enum operator's one step for a live ``root``: resolve its
    cut set, then the phase that charges the merge work it took."""
    before = cutman.work
    cutman.fresh_block(root)  # resolve only: no ``Cut`` is built
    # Lock the node plus the nodes whose cut sets the recursion had to
    # compute: only TFI/TFO-related worklist neighbours can race on
    # those shared entries, so conflicts here are rare and cheap —
    # exactly the paper's Section 4.2 argument.
    region: Set[int] = {root}
    region.update(cutman.last_computed)
    return Phase(locks=region, cost=cutman.work - before + 1)


def make_replace_operator(ctx: StageContext) -> Callable[[int], Generator[Phase, None, None]]:
    """Parallel replacement (Section 4.4).

    Locks the node, its fanouts, its MFFC and the cut leaves — the
    nodes the splice touches — then, with everything held, validates
    the stored result on the *latest* graph and applies it only if the
    gain is still positive.
    """

    def operator(root: int) -> Generator[Phase, None, None]:
        aig = ctx.aig
        candidate = ctx.prep_info.get(root)
        if candidate is None or aig.is_dead(root):
            return
        region: Set[int] = {root}
        region.update(aig.fanouts(root))
        region.update(candidate.cut.leaves)
        region.update(mffc(aig, root, candidate.cut.leaves))
        cost = 2 + candidate.structure.num_ands + candidate.cut.size
        yield Phase(locks=region, cost=cost)
        if ctx.validate:
            meter = WorkMeter()
            fresh = validate_candidate(
                aig, ctx.cutman, candidate, ctx.config, meter, ctx.validation_stats
            )
            ctx.meter.add(meter.units)
            if fresh is None:
                ctx.validation_failures += 1
                if ctx.observer.enabled:
                    ctx.observer.count("validation_failures_total")
                return
        else:
            # Ablation mode: apply the stored result without dynamic
            # re-validation (only the structural-liveness minimum that
            # keeps the graph sound) — i.e. static global information.
            from ..cuts import cut_is_stamp_alive

            if (
                aig.life_stamp(root) != candidate.root_life
                or not cut_is_stamp_alive(aig, candidate.cut)
            ):
                ctx.validation_failures += 1
                if ctx.observer.enabled:
                    ctx.observer.count("validation_failures_total")
                return
            fresh = candidate
        saved = apply_candidate(aig, fresh)
        ctx.replacements += 1
        ctx.nodes_saved += saved
        if ctx.observer.enabled:
            ctx.observer.count("replacements_total")
            ctx.observer.observe("applied_gain", fresh.gain)

    return operator
