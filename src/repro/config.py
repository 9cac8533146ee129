"""Rewriting configuration and the paper's parameter presets."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Optional

from .errors import ConfigError
from .npn.classes import class_set

# The level pipeline's executors (``repro.galois.make_executor``).
EXECUTOR_KINDS = ("simulated", "process")


@dataclass(frozen=True)
class RewriteConfig:
    """Parameters shared by every rewriting engine.

    The paper's Table 3 presets:

    * **P1** — 8 cuts, 5 structures per class, 2 passes (what the GPU
      works DAC'22/TCAD'23 use, except they evaluate all 222 classes
      while DACPara-P1 can only use the 134 practical ones).
    * **P2** — the ICCAD'18 configuration: 134 classes, unlimited cuts
      and structures, a single pass.
    """

    max_cuts: Optional[int] = 12
    max_structs: Optional[int] = 8
    npn_classes: str = "common134"
    passes: int = 1
    zero_gain: bool = False
    preserve_level: bool = False
    workers: int = 1
    # Execution backend: 'simulated' (deterministic instrument;
    # workers=1 is the serial timing reference) or 'process': shards
    # (``shards`` > 1) are rewritten on a pool of OS processes; the
    # level pipeline always runs simulated in-process.
    executor: str = "simulated"
    # OS worker processes for the shard pool; None = core count.
    # Independent of ``workers`` (the logical parallelism model).
    jobs: Optional[int] = None
    # Deadline for one shard on a pool worker: a shard that outlives it
    # is computed in-parent and the (presumed wedged) pool is restarted.
    # None disables the deadline (a hung worker then hangs the stage).
    # The rest of the fault policy is fixed (repro.galois.faults).
    chunk_timeout_seconds: Optional[float] = 300.0
    # Fault-injection plan for the chaos tests: entries
    # "mode@stage:chunk[:fires]" (mode = kill/hang/raise/corrupt)
    # separated by "," or ";"; None injects nothing.
    fault_plan: Optional[str] = None
    # Shard-parallel rewriting: split the graph into up to this many
    # TFI/TFO-disjoint PO-cone regions and run the *whole* pipeline per
    # shard concurrently (boundary nodes frozen).  1 = the unsharded
    # level pipeline; graphs that do not decompose (single cone, too
    # small) fall back to it automatically.
    shards: int = 1
    # Floor on the owned-node count a balanced shard must reach: the
    # extractor lowers the shard count (and, below two usable shards,
    # disables sharding) rather than fan out regions too small to pay
    # for their snapshot round-trip.
    shard_min_nodes: int = 256
    # Seam-rotation passes for a sharded run: each pass re-plans the
    # regions with a rotated PO grouping, so the frozen boundary lands
    # on different nodes and later passes rewrite what earlier passes
    # froze.  Only meaningful with shards > 1.
    shard_passes: int = 1
    # After the sharded passes, run the sequential (unsharded,
    # deterministic) pipeline restricted to the TFI neighborhood of the
    # former boundary and dangling nodes, recovering seam-crossing cuts
    # no shard could see.  Only meaningful with shards > 1.
    boundary_cleanup: bool = True

    def __post_init__(self) -> None:
        if self.passes < 1:
            raise ConfigError("passes must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.max_cuts is not None and self.max_cuts < 1:
            raise ConfigError("max_cuts must be positive or None")
        if self.max_structs is not None and self.max_structs < 1:
            raise ConfigError("max_structs must be positive or None")
        if self.executor not in EXECUTOR_KINDS:
            raise ConfigError(f"unknown executor {self.executor!r}")
        if self.jobs is not None and self.jobs < 1:
            raise ConfigError("jobs must be >= 1 or None")
        if self.chunk_timeout_seconds is not None and \
                self.chunk_timeout_seconds <= 0:
            raise ConfigError(
                "chunk_timeout_seconds must be positive or None"
            )
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if self.shard_min_nodes < 1:
            raise ConfigError("shard_min_nodes must be >= 1")
        if self.shard_passes < 1:
            raise ConfigError("shard_passes must be >= 1")
        if self.fault_plan is not None:
            from .galois.faults import FaultPlan

            try:
                FaultPlan.parse(self.fault_plan)
            except ValueError as exc:
                raise ConfigError(str(exc))
        class_set(self.npn_classes)  # validates the name

    @property
    def allowed_classes(self) -> FrozenSet[int]:
        return class_set(self.npn_classes)

    def with_workers(self, workers: int) -> "RewriteConfig":
        return replace(self, workers=workers)

    def with_executor(self, executor: str, jobs: Optional[int] = None) -> "RewriteConfig":
        return replace(self, executor=executor, jobs=jobs)


def abc_rewrite_config() -> RewriteConfig:
    """The ABC ``rewrite`` operator model: 134 classes, serial."""
    return RewriteConfig(npn_classes="common134", workers=1)


def iccad18_config(workers: int = 40) -> RewriteConfig:
    """The ICCAD'18 fused-operator parallel configuration.  Equal to
    :func:`dacpara_config`: the engines differ, not the preset."""
    return RewriteConfig(npn_classes="common134", workers=workers)


def dacpara_config(workers: int = 40) -> RewriteConfig:
    """DACPara default (matches P2 quality settings).  Equal to
    :func:`iccad18_config`: the engines differ, not the preset."""
    return RewriteConfig(npn_classes="common134", workers=workers)


def dacpara_p1_config(workers: int = 40) -> RewriteConfig:
    """Paper parameter P1: 8 cuts, 5 structures, 2 passes, 134 classes."""
    return RewriteConfig(
        npn_classes="common134", max_cuts=8, max_structs=5, passes=2, workers=workers
    )


def dacpara_p2_config(workers: int = 40) -> RewriteConfig:
    """Paper parameter P2: ICCAD'18-equivalent settings, 1 pass."""
    return RewriteConfig(
        npn_classes="common134", max_cuts=None, max_structs=None, passes=1,
        workers=workers,
    )


def gpu_config(workers: int = 9216) -> RewriteConfig:
    """DAC'22 / TCAD'23 model: 222 classes, 8 cuts, 5 structures,
    2 passes, massive parallelism."""
    return RewriteConfig(
        npn_classes="all222", max_cuts=8, max_structs=5, passes=2, workers=workers
    )
