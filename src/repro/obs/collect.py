"""Parent-side collection of cross-process wall-clock telemetry.

:class:`WallTimeline` is the second clock domain of a trace: while the
:class:`~repro.obs.tracer.SpanTracer` lives on the deterministic
simulated work-unit clock, the timeline collects *physical* seconds —
one span track per pool-worker pid (built from the
:class:`~repro.obs.wall.ChunkTelemetry` records piggybacked on chunk
results), parent-side fan-out windows, and fault-tolerance instants
(timeouts, retries, quarantines, pool restarts).  The
exporters (:mod:`repro.obs.export`) keep the domains apart via
separate Chrome-trace ``pid`` groups, so one Perfetto view shows the
simulated schedule and the real pool occupancy side by side.

The timeline also carries:

* a bounded **flight recorder** — a ring of the last N chunk
  telemetry records, snapshotted into :attr:`WallTimeline.dumps`
  whenever a chunk is quarantined or the pool restarts, for
  post-mortem without rerunning;
* **occupancy** analysis — busy seconds and peak concurrency per
  worker pid derived from span overlap, the source of the
  ``pool_utilization`` / ``pool_peak_concurrency`` gauges.

:class:`ProgressLine` is the ``repro top``-style live status line
(behind ``rewrite --progress``): a single ``\\r``-rewritten stderr
line fed by the observer (levels, stages) and the shard pool
(chunks, retries), throttled so it never becomes the hot path.
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .wall import ChunkTelemetry

#: Default flight-recorder depth (``TracingObserver(flight_size=)``
#: sets another).
FLIGHT_RECORDER_SIZE = 64

#: Post-mortem dumps kept per run: a pathological run (every chunk
#: poisoned) would otherwise snapshot the ring once per quarantine;
#: the newest dumps are the ones that matter.
MAX_FLIGHT_DUMPS = 8


@dataclass
class WallSpan:
    """One wall-clock interval on a pid's track (seconds since the
    timeline's origin)."""

    name: str
    cat: str
    pid: int
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class WallEvent:
    """An instantaneous wall-clock marker (fault events, mostly)."""

    name: str
    cat: str
    pid: int
    ts: float
    args: Dict[str, Any] = field(default_factory=dict)


class WallTimeline:
    """Unified wall-clock timeline for one observed run.

    All stored timestamps are seconds relative to :attr:`t0` (the
    ``time.time()`` at construction), which keeps exported numbers
    small and lets the exporters scale to microseconds without caring
    about epoch offsets.  Cross-process alignment rests on
    CLOCK_REALTIME being shared by parent and workers on one machine;
    clock granularity can make a derived gap (submit→worker-start,
    worker-end→receive) come out slightly negative, which is clamped
    to zero rather than exported as time travel.
    """

    def __init__(self, flight_size: int = FLIGHT_RECORDER_SIZE):
        self.t0 = time.time()
        self.parent_pid = os.getpid()
        self.spans: List[WallSpan] = []
        self.events: List[WallEvent] = []
        self.flight: "deque[Dict[str, Any]]" = deque(maxlen=max(1, flight_size))
        self.dumps: "deque[Dict[str, Any]]" = deque(maxlen=MAX_FLIGHT_DUMPS)
        self.chunks = 0

    # -- ingestion -----------------------------------------------------

    def _rel(self, wall_ts: float) -> float:
        return wall_ts - self.t0

    def add_chunk(
        self,
        tele: ChunkTelemetry,
        submit_time: float,
        receive_time: float,
    ) -> Dict[str, float]:
        """Merge one worker's chunk record with the parent's submit and
        receive timestamps; returns the per-phase durations (seconds)
        for the ``chunk_wall_seconds{stage,phase}`` histograms.

        The worker measured ``patch`` and ``compute``; the two
        cross-process phases are derived here: ``receive`` is
        submit→worker-start (queue wait + request IPC) and
        ``serialize`` is worker-end→parent-receive (result pickle +
        response IPC), both clamped at zero against clock skew.
        """
        base = self._rel(tele.anchor)
        phases: Dict[str, float] = {}
        receive = max(0.0, tele.anchor - submit_time)
        args = {"stage": tele.stage, "chunk": tele.chunk,
                "attempt": tele.attempt, "tasks": tele.tasks}
        self.spans.append(WallSpan(
            "receive", "chunk", tele.pid, base - receive, base, dict(args),
        ))
        phases["receive"] = receive
        for name, start, end in tele.phases:
            self.spans.append(WallSpan(
                name, "chunk", tele.pid, base + start, base + end, dict(args),
            ))
            phases[name] = phases.get(name, 0.0) + (end - start)
        done = base + tele.total
        serialize = max(0.0, self._rel(receive_time) - done)
        self.spans.append(WallSpan(
            "serialize", "chunk", tele.pid, done, done + serialize, dict(args),
        ))
        phases["serialize"] = serialize
        phases["total"] = max(0.0, receive_time - submit_time)
        self.chunks += 1
        self.flight.append(dict(
            tele.as_dict(),
            submit_time=submit_time - self.t0,
            receive_time=self._rel(receive_time),
        ))
        return phases

    def parent_span(self, name: str, start_time: float, end_time: float,
                    **args: Any) -> WallSpan:
        """A wall interval on the parent's own track (fan-out windows)."""
        span = WallSpan(name, "fanout", self.parent_pid,
                        self._rel(start_time), self._rel(end_time), dict(args))
        self.spans.append(span)
        return span

    def instant(self, name: str, cat: str = "fault", **args: Any) -> WallEvent:
        """A marker at *now* on the parent's track (fault events)."""
        event = WallEvent(name, cat, self.parent_pid,
                          self._rel(time.time()), dict(args))
        self.events.append(event)
        return event

    # -- flight recorder -----------------------------------------------

    def dump_flight(self, reason: str, **args: Any) -> Dict[str, Any]:
        """Snapshot the ring into :attr:`dumps` (post-mortem payload)."""
        dump = {
            "reason": reason,
            "at": self._rel(time.time()),
            "records": list(self.flight),
            **args,
        }
        self.dumps.append(dump)
        return dump

    # -- analysis ------------------------------------------------------

    def worker_pids(self) -> List[int]:
        """Pids that contributed chunk spans, sorted."""
        return sorted({s.pid for s in self.spans if s.cat == "chunk"})

    def utilization(self, jobs: Optional[int] = None) -> Dict[str, float]:
        """Pool occupancy derived from chunk-span overlap.

        ``busy_seconds`` unions each worker's chunk intervals (so
        overlapping phase spans are not double-counted);
        ``peak_concurrency`` is the maximum number of workers busy at
        one instant; ``utilization`` is busy time over
        ``jobs × window`` where the window spans first to last chunk
        activity.
        """
        intervals: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.cat != "chunk" or span.end <= span.start:
                continue
            intervals.setdefault(span.pid, []).append((span.start, span.end))
        if not intervals:
            return {"window_seconds": 0.0, "busy_seconds": 0.0,
                    "utilization": 0.0, "peak_concurrency": 0.0,
                    "workers_seen": 0.0}
        busy = 0.0
        merged_all: List[Tuple[float, float]] = []
        for pid, ivs in intervals.items():
            ivs.sort()
            cur_s, cur_e = ivs[0]
            merged: List[Tuple[float, float]] = []
            for s, e in ivs[1:]:
                if s <= cur_e:
                    cur_e = max(cur_e, e)
                else:
                    merged.append((cur_s, cur_e))
                    cur_s, cur_e = s, e
            merged.append((cur_s, cur_e))
            busy += sum(e - s for s, e in merged)
            merged_all.extend(merged)
        window_start = min(s for s, _ in merged_all)
        window_end = max(e for _, e in merged_all)
        window = window_end - window_start
        # Peak concurrency: sweep over interval endpoints.
        edges = sorted(
            [(s, 1) for s, _ in merged_all] + [(e, -1) for _, e in merged_all],
            key=lambda x: (x[0], x[1]),
        )
        depth = peak = 0
        for _, d in edges:
            depth += d
            peak = max(peak, depth)
        slots = jobs if jobs else len(intervals)
        return {
            "window_seconds": window,
            "busy_seconds": busy,
            "utilization": busy / (slots * window) if window > 0 else 0.0,
            "peak_concurrency": float(peak),
            "workers_seen": float(len(intervals)),
        }

    def __bool__(self) -> bool:
        return bool(self.spans or self.events or self.dumps)


class ProgressLine:
    """Single-line live progress (the ``--progress`` flag).

    Fields are free-form ``key=value`` pairs rendered in first-set
    order; :meth:`set` overwrites, :meth:`bump` increments.  Rendering
    is throttled to ``min_interval`` seconds so feeding it from hot
    loops is safe, and :meth:`close` finishes with a newline so the
    shell prompt is not overwritten.  Nothing is written when the
    stream is not a terminal unless ``force`` is set (tests set it).
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 min_interval: float = 0.1, force: bool = False):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.enabled = force or bool(getattr(self.stream, "isatty", lambda: False)())
        self.fields: Dict[str, Any] = {}
        self.renders = 0
        self._last: Optional[float] = None
        self._width = 0

    def set(self, **fields: Any) -> None:
        self.fields.update(fields)
        self._render()

    def bump(self, key: str, n: int = 1) -> None:
        self.fields[key] = self.fields.get(key, 0) + n
        self._render()

    def _render(self, final: bool = False) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        if (not final and self._last is not None
                and now - self._last < self.min_interval):
            return
        self._last = now
        line = " · ".join(f"{k} {v}" for k, v in self.fields.items())
        pad = " " * max(0, self._width - len(line))
        self._width = len(line)
        self.stream.write(f"\r{line}{pad}")
        self.stream.flush()
        self.renders += 1

    def close(self) -> None:
        if not self.enabled:
            return
        self._render(final=True)
        if self._width:
            self.stream.write("\n")
            self.stream.flush()
