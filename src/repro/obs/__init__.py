"""Unified tracing & metrics for all rewriting engines.

One :class:`Observer` travels through the executor, the operators and
the engine drivers; by default it is the shared no-op
:data:`NULL_OBSERVER` (zero overhead), and a :class:`TracingObserver`
turns the same hooks into a hierarchical span trace (run → pass →
worklist → stage → activity, timestamped in deterministic simulated
work units) plus a metrics registry.  The trace has one clock: real
seconds enter only as metric values (kernel and shard wall seconds),
never as timestamps.  Exporters serialize the observation into Chrome
trace-event JSON (Perfetto / ``chrome://tracing``) or a JSONL event
stream.
"""

from .metrics import (
    Counter,
    FAULT_TOLERANCE_COUNTERS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .observer import NULL_OBSERVER, Observer, ProgressLine, TracingObserver
from .export import (
    chrome_trace_json,
    jsonl_lines,
    to_chrome_trace,
    write_jsonl,
)
from .profile import (
    format_profile,
    level_breakdown,
    stage_breakdown,
    stage_breakdown_from_tracer,
)
from .tracer import Event, Span, SpanTracer

__all__ = [
    "Counter",
    "FAULT_TOLERANCE_COUNTERS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "Observer",
    "ProgressLine",
    "TracingObserver",
    "chrome_trace_json",
    "jsonl_lines",
    "to_chrome_trace",
    "write_jsonl",
    "format_profile",
    "level_breakdown",
    "stage_breakdown",
    "stage_breakdown_from_tracer",
    "Event",
    "Span",
    "SpanTracer",
]
