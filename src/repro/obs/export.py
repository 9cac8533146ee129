"""Exporters for the observability layer.

Two formats, both with stable key order:

* **Chrome trace-event JSON** — load in Perfetto or ``chrome://tracing``
  to *see* per-level barrier idle time and stage overlap.  Timestamps
  are simulated work units interpreted as microseconds.
* **JSONL** — one event per line, for ad-hoc ``jq``/pandas analysis,
  ending in one ``metrics`` record with the registry's snapshot.

The Chrome trace is deterministic: no wall-clock enters it, so a
re-run with the same inputs — or a sharded run on the process pool
against the same run on the simulated executor — exports the same
bytes.  The JSONL stream's span and instant records are equally
deterministic; its ``metrics`` record also carries the registry's
wall-clock histograms (kernel and shard seconds).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional

from .metrics import MetricsRegistry
from .tracer import SpanTracer

#: Chrome-trace ``pid`` of the simulated-clock process group, the only
#: one a trace has.
SIM_CLOCK_PID = 0


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Chrome trace-event format


def to_chrome_trace(
    tracer: SpanTracer,
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The trace as a Chrome/Perfetto ``traceEvents`` object."""
    events: List[Dict[str, object]] = []
    events.append({
        "ph": "M", "name": "process_name", "pid": SIM_CLOCK_PID, "tid": 0,
        "args": {"name": "simulated clock (work units)"},
    })
    tracks = sorted({s.track for s in tracer.spans}
                    | {e.track for e in tracer.events})
    for track in tracks:
        label = "control" if track == 0 else f"worker-{track - 1}"
        events.append({
            "ph": "M", "name": "thread_name", "pid": SIM_CLOCK_PID,
            "tid": track, "args": {"name": label},
        })
    for span in tracer.spans:
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "ts": span.start,
            "dur": span.duration,
            "pid": SIM_CLOCK_PID,
            "tid": span.track,
            "args": dict(span.args, sid=span.sid,
                         parent=-1 if span.parent is None else span.parent),
        })
    for event in tracer.events:
        events.append({
            "ph": "i",
            "s": "t",
            "name": event.name,
            "cat": event.cat,
            "ts": event.ts,
            "pid": SIM_CLOCK_PID,
            "tid": event.track,
            "args": dict(event.args, sid=event.sid),
        })
    doc: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}, clock="simulated-work-units"),
    }
    return doc


def chrome_trace_json(
    tracer: SpanTracer,
    metadata: Optional[Dict[str, object]] = None,
) -> str:
    """Serialization of :func:`to_chrome_trace` (byte-reproducible)."""
    return _dumps(to_chrome_trace(tracer, metadata))


# ---------------------------------------------------------------------------
# JSONL event stream


def jsonl_lines(
    tracer: SpanTracer,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[str]:
    """One JSON object per line: spans, instants, then metric values."""
    for span in tracer.spans:
        yield _dumps({
            "kind": "span", "sid": span.sid, "parent": span.parent,
            "name": span.name, "cat": span.cat, "start": span.start,
            "end": span.end, "track": span.track, "args": span.args,
        })
    for event in tracer.events:
        yield _dumps({
            "kind": "instant", "sid": event.sid, "name": event.name,
            "cat": event.cat, "ts": event.ts, "track": event.track,
            "args": event.args,
        })
    if metrics is not None:
        yield _dumps({"kind": "metrics", "snapshot": metrics.snapshot()})


def write_jsonl(
    path: str,
    tracer: SpanTracer,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    with open(path, "w") as fh:
        for line in jsonl_lines(tracer, metrics):
            fh.write(line + "\n")
