"""Metrics registry: counters, gauges and histograms with labels.

The registry is the numeric half of the observability layer (the
tracer is the temporal half): gain distributions, cuts-per-node, NPN
class hit frequencies, conflict/abort totals per stage,
validation-failure causes, per-level worklist occupancy.  Everything
but the ``*_seconds`` histograms (kernel, shard and fan-out wall
seconds) is deterministic — values come from the simulated executor
and the engines' own counters.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Counters the fault-tolerant shard pool emits on its recovery paths
#: (``repro.galois.procpool``).  All stay at zero on a healthy run:
#:
#: * ``pool_restarts_total``       — BrokenProcessPool / wedged-pool
#:   replacements (bounded by ``faults.POOL_RESTART_BUDGET``)
#: * ``chunk_retries_total{stage}`` — failed-chunk resubmissions
#: * ``chunk_timeouts_total``      — chunks that outlived
#:   ``config.chunk_timeout_seconds``
#: * ``quarantined_chunks_total``  — poison chunks that exhausted
#:   their retries (coordinates on ``ProcessExecutor.quarantined``)
#: * ``chunk_fallback_total``      — chunks computed in-parent while
#:   the rest of the fan-out stayed on worker cores
FAULT_TOLERANCE_COUNTERS: Tuple[str, ...] = (
    "pool_restarts_total",
    "chunk_retries_total",
    "chunk_timeouts_total",
    "quarantined_chunks_total",
    "chunk_fallback_total",
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v


class Histogram:
    """A distribution summary: exact count/sum/min/max (what the
    ``--json`` and JSONL snapshots report)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named, labelled metrics; one instance per observed run."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- accessors (create on first use) ---------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    # -- iteration / snapshots -------------------------------------------

    def counters(self) -> Iterator[Tuple[str, LabelKey, Counter]]:
        for (name, labels), metric in sorted(self._counters.items()):
            yield name, labels, metric

    def gauges(self) -> Iterator[Tuple[str, LabelKey, Gauge]]:
        for (name, labels), metric in sorted(self._gauges.items()):
            yield name, labels, metric

    def histograms(self) -> Iterator[Tuple[str, LabelKey, Histogram]]:
        for (name, labels), metric in sorted(self._histograms.items()):
            yield name, labels, metric

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view (the ``--json`` payload)."""
        out: Dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, labels, metric in self.counters():
            out["counters"][_flat_name(name, labels)] = metric.value
        for name, labels, metric in self.gauges():
            out["gauges"][_flat_name(name, labels)] = metric.value
        for name, labels, metric in self.histograms():
            out["histograms"][_flat_name(name, labels)] = {
                "count": metric.count,
                "sum": metric.total,
                "min": metric.min,
                "max": metric.max,
                "mean": metric.mean,
            }
        return out


def _flat_name(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"
