"""Result record shared by all rewriting engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class RewriteResult:
    """What one engine did to one circuit.

    ``work_units`` is the total abstract work performed;
    ``makespan_units`` is the simulated parallel completion time (equal
    to ``work_units`` for a serial engine, smaller with more workers —
    this pair is what the paper's speedup columns are computed from).
    """

    engine: str
    workers: int
    area_before: int
    area_after: int
    delay_before: int
    delay_after: int
    replacements: int = 0
    attempted: int = 0
    passes: int = 0
    work_units: int = 0
    makespan_units: int = 0
    conflicts: int = 0
    aborted_units: int = 0
    validation_failures: int = 0
    revalidated: int = 0
    stage_units: Dict[str, int] = field(default_factory=dict)
    # Region count of a sharded run (0 = the unsharded level pipeline).
    shards: int = 0
    # Seam-rotation passes a sharded run executed (0 = unsharded).
    shard_passes: int = 0
    # Why a sharded request fell back to the unsharded pipeline
    # ("" = no fallback happened; e.g. "too_few_pos", "too_few_regions").
    shard_fallback: str = ""

    @classmethod
    def begin(cls, engine: str, workers: int, aig, **extra) -> "RewriteResult":
        """The record at the start of a run on ``aig``: after == before."""
        area, delay = aig.num_ands, aig.max_level()
        return cls(engine=engine, workers=workers, area_before=area,
                   area_after=area, delay_before=delay, delay_after=delay,
                   **extra)

    def finish(self, aig, stats=None) -> "RewriteResult":
        """Close the record on the rewritten ``aig``; ``stats`` (an
        executor's ``ExecutorStats``) fills the work accounting."""
        self.area_after = aig.num_ands
        self.delay_after = aig.max_level()
        if stats is not None:
            self.work_units = stats.total_useful_units
            self.makespan_units = stats.makespan
            self.conflicts = stats.total_conflicts
            self.aborted_units = stats.total_aborted_units
            self.stage_units = stats.units_by_stage_name()
        return self

    @property
    def area_reduction(self) -> int:
        """The paper's "Area Reduction" column: AND nodes removed."""
        return self.area_before - self.area_after

    @property
    def area_reduction_pct(self) -> float:
        if self.area_before == 0:
            return 0.0
        return 100.0 * self.area_reduction / self.area_before

    @property
    def speedup_vs_serial_work(self) -> float:
        """Work/makespan: the effective parallel efficiency × workers."""
        if self.makespan_units == 0:
            return 1.0
        return self.work_units / self.makespan_units

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable record (the CLI's ``--json`` payload)."""
        return {
            "engine": self.engine,
            "workers": self.workers,
            "area_before": self.area_before,
            "area_after": self.area_after,
            "area_reduction": self.area_reduction,
            "area_reduction_pct": self.area_reduction_pct,
            "delay_before": self.delay_before,
            "delay_after": self.delay_after,
            "replacements": self.replacements,
            "attempted": self.attempted,
            "passes": self.passes,
            "work_units": self.work_units,
            "makespan_units": self.makespan_units,
            "speedup_vs_serial_work": self.speedup_vs_serial_work,
            "conflicts": self.conflicts,
            "aborted_units": self.aborted_units,
            "validation_failures": self.validation_failures,
            "revalidated": self.revalidated,
            "stage_units": dict(self.stage_units),
            "shards": self.shards,
            "shard_passes": self.shard_passes,
            "shard_fallback": self.shard_fallback,
        }

    def summary(self) -> str:
        return (
            f"{self.engine}[{self.workers}w]: area {self.area_before} -> "
            f"{self.area_after} (-{self.area_reduction}), delay "
            f"{self.delay_before} -> {self.delay_after}, makespan "
            f"{self.makespan_units}u, conflicts {self.conflicts}"
        )
