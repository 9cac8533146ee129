"""Span tracing from outside the program.

The layer split is measured by timing the calls into each layer's
public functions: :data:`TARGETS` declares ``(metric, module,
qualname)`` once, and :class:`Tracer` wraps each target for the length
of a ``with`` block — the defining attribute *and* every loaded
``repro.*`` module that re-bound the same function object
(``from .partition import node_dividing``).  Spans nest through a
stack, so a span's self time (its duration minus what its child spans
cover) is exact, and the self times of all spans under the root add up
to the root's duration.

A target that no longer resolves is listed in ``Tracer.untraced`` and
its metrics read ``None`` — never a crash, never a silent 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.observer import Observer

RUN_TOTAL = "run.total_s"
CLEANUP_RUN = "shards.cleanup_run_s"


def _stage_metric(args: tuple, kwargs: dict) -> Optional[str]:
    """``SimulatedExecutor.run(self, name, items, operator)``: one
    metric per stage name; other stage names stay in the caller."""
    name = kwargs["name"] if "name" in kwargs else args[1]
    return f"sched.replay_{name}_s" if name in ("enum", "eval", "replace") \
        else None


def _run_metric(args: tuple, kwargs: dict) -> Optional[str]:
    """``DACParaRewriter.run(self, aig, restrict=None)``: the timed run
    is the root; the boundary cleanup's nested ``run(restrict=...)``
    is its own (inclusive) metric."""
    restrict = kwargs["restrict"] if "restrict" in kwargs else (
        args[2] if len(args) > 2 else None
    )
    return RUN_TOTAL if restrict is None else CLEANUP_RUN


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    metrics: Tuple[str, ...]  # every name this target can emit
    # Picks the metric per call (None = one fixed metric).
    select: Optional[Callable[[tuple, dict], Optional[str]]] = None


def _t(metric: str, module: str, qualname: str) -> Target:
    return Target(module, qualname, (metric,))


TARGETS: Tuple[Target, ...] = (
    Target("repro.core.dacpara", "DACParaRewriter.run",
           (RUN_TOTAL, CLEANUP_RUN), _run_metric),
    _t("partition.node_dividing_s", "repro.core.partition", "node_dividing"),
    _t("partition.plan_regions_s", "repro.core.partition", "plan_regions"),
    _t("partition.cleanup_region_s", "repro.core.partition", "cleanup_region"),
    _t("cuts.merge_kernel_s", "repro.cuts.manager",
       "CutManager.merge_tasks_columnar"),
    _t("cuts.enum_harvest_s", "repro.cuts.manager", "CutManager.enum_harvest"),
    _t("cuts.install_s", "repro.cuts.manager", "CutManager.install_cuts"),
    _t("cuts.eval_harvest_s", "repro.cuts.manager", "CutManager.eval_harvest"),
    _t("cuts.fresh_cuts_s", "repro.cuts.manager", "CutManager.fresh_cuts"),
    _t("rewrite.eval_kernel_s", "repro.rewrite.columnar",
       "eval_tasks_columnar"),
    _t("rewrite.apply_s", "repro.rewrite.base", "apply_candidate"),
    _t("validation.validate_s", "repro.core.validation", "validate_candidate"),
    Target("repro.galois.simsched", "SimulatedExecutor.run",
           ("sched.replay_enum_s", "sched.replay_eval_s",
            "sched.replay_replace_s"), _stage_metric),
    _t("procpool.run_enum_s", "repro.galois.procpool",
       "ProcessExecutor.run_enum"),
    _t("procpool.run_eval_s", "repro.galois.procpool",
       "ProcessExecutor.run_eval"),
    _t("procpool.run_shards_s", "repro.galois.procpool",
       "ProcessExecutor.run_shards"),
    _t("snapshot.capture_s", "repro.aig.snapshot", "AigSnapshot.capture"),
    _t("snapshot.delta_s", "repro.aig.snapshot", "AigSnapshot.delta_since"),
    _t("shards.splice_s", "repro.core.shards", "splice_shard"),
)


class Tracer:
    """Records one span per call into a wrapped target, in memory."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.untraced: List[str] = []
        # One entry per span, in start order.
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        # Load every target module before patching any: a module first
        # imported mid-way would bind a wrapper that __exit__ cannot
        # find again.
        for target in self.targets:
            try:
                importlib.import_module(target.module)
            except ImportError:
                pass  # reported as untraced by _patch below
        for target in self.targets:
            try:
                self._patch(target)
            except (ImportError, AttributeError, KeyError):
                self.untraced.append(f"{target.module}:{target.qualname}")
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, target: Target) -> None:
        owner = importlib.import_module(target.module)
        *path, leaf = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        # The raw attribute, so classmethods keep their descriptor.
        raw = vars(owner)[leaf]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, target))
        else:
            wrapped = self._wrap(raw, target)
        self._set(owner, leaf, raw, wrapped)
        if path:
            return
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, attr, raw, wrapped)

    def _set(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def _wrap(self, fn, target: Target):
        names, parents = self.names, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        select = target.select
        fixed = target.metrics[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            metric = fixed if select is None else select(args, kwargs)
            if metric is None:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(metric)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    # -- aggregation -----------------------------------------------------

    def summary(self) -> Dict[str, Optional[dict]]:
        """Per metric: ``{"calls", "inclusive_s", "self_s"}``; ``None``
        for the metrics of a target that did not resolve."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        unresolved = set(self.untraced)
        out: Dict[str, Optional[dict]] = {}
        for target in self.targets:
            missing = f"{target.module}:{target.qualname}" in unresolved
            for metric in target.metrics:
                out[metric] = None if missing else {
                    "calls": 0, "inclusive_s": 0.0, "self_s": 0.0,
                }
        for i, name in enumerate(self.names):
            row = out[name]
            duration = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["inclusive_s"] += duration
            row["self_s"] += duration - covered[i]
        return out

    def dump(self) -> dict:
        """The raw spans, columnar, for the spans file."""
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "name": [code[n] for n in self.names],
            "parent": self.parents,
            "start": self.starts,
            "end": self.ends,
        }


def _label_key(labels: dict) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(labels.items()))


class CountingObserver(Observer):
    """Counting-only observer handed to the rewriter as ``observer=``:
    ``count``/``observe``/``gauge`` are recorded, the span hooks stay
    the base class's no-ops so replay loops are not distorted.
    Histograms keep ``[n, sum, max]`` per label set, not every sample.
    """

    enabled = True

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {}
        self.observed: Dict[str, Dict[tuple, List[float]]] = {}

    def begin(self, name: str, cat: str, ts: int, **args: object) -> None:
        # The boundary cleanup publishes its region size only as an
        # argument of its control span (one call per run).
        if name == "shard_cleanup":
            self.counts["shard_cleanup_region_nodes"] = args["region"]

    def count(self, name: str, n: int = 1, **labels: object) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def observe(self, name: str, value: float, **labels: object) -> None:
        cell = self.observed.setdefault(name, {}).setdefault(
            _label_key(labels), [0, 0.0, value]
        )
        cell[0] += 1
        cell[1] += value
        if value > cell[2]:
            cell[2] = value

    def gauge(self, name: str, value: float, **labels: object) -> None:
        self.counts[name] = value

