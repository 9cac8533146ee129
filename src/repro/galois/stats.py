"""Execution statistics for the Galois-like runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class StageStats:
    """One executor.run() invocation (one operator over one worklist)."""

    name: str
    activities: int = 0
    committed: int = 0
    conflicts: int = 0
    retries: int = 0
    useful_units: int = 0
    aborted_units: int = 0
    start_time: int = 0
    end_time: int = 0
    # Real elapsed seconds for the stage (the timeline is work units),
    # so profiles can put wall-clock next to work units.
    wall_seconds: float = 0.0

    @property
    def makespan(self) -> int:
        return self.end_time - self.start_time

    @property
    def conflict_rate(self) -> float:
        """Aborted attempts / total attempts (commits + aborts)."""
        attempts = self.committed + self.conflicts
        if attempts == 0:
            return 0.0
        return self.conflicts / attempts


@dataclass
class ExecutionStats:
    """Cumulative statistics across all stages of a parallel run."""

    workers: int = 1
    stages: List[StageStats] = field(default_factory=list)

    @property
    def makespan(self) -> int:
        return max((s.end_time for s in self.stages), default=0)

    @property
    def total_useful_units(self) -> int:
        return sum(s.useful_units for s in self.stages)

    @property
    def total_aborted_units(self) -> int:
        return sum(s.aborted_units for s in self.stages)

    @property
    def total_conflicts(self) -> int:
        return sum(s.conflicts for s in self.stages)

    def units_by_stage_name(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.stages:
            out[s.name] = out.get(s.name, 0) + s.useful_units
        return out

    @property
    def parallel_efficiency(self) -> float:
        """Useful work / (workers × makespan).

        A run with stages but zero makespan (all activities were free,
        or the executor has no timeline) did no measurable useful work
        per worker-unit, so it reports 0.0; only a run with *no* stages
        at all is vacuously efficient.
        """
        span = self.makespan
        if span == 0 or self.workers == 0:
            return 1.0 if not self.stages else 0.0
        return self.total_useful_units / (self.workers * span)

    @property
    def conflict_rate(self) -> float:
        """Aborted attempts / total attempts across all stages."""
        attempts = sum(s.committed for s in self.stages) + self.total_conflicts
        if attempts == 0:
            return 0.0
        return self.total_conflicts / attempts
