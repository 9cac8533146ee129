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

Re-exported lazily (:mod:`repro._lazy`): a run loads the observer, its
metrics and tracer; the exporters and the profile tables load when a
command asks for them.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "metrics": ("Counter", "FAULT_TOLERANCE_COUNTERS", "Gauge", "Histogram",
                "MetricsRegistry"),
    "observer": ("NULL_OBSERVER", "Observer", "ProgressLine",
                 "TracingObserver"),
    "export": ("chrome_trace_json", "jsonl_lines", "to_chrome_trace",
               "write_jsonl"),
    "profile": ("format_profile", "level_breakdown", "stage_breakdown",
                "stage_breakdown_from_tracer"),
    "tracer": ("Event", "Span", "SpanTracer"),
})
