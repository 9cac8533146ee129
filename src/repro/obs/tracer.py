"""Hierarchical span tracer driven by the simulated work-unit clock.

Spans form the tree run → pass → worklist → stage → activity.  The
control levels (run/pass/worklist/stage) are well-nested in simulated
time — stages are separated by barriers — so parenting is maintained
with an explicit begin/end stack.  Activity spans overlap freely and
live on per-worker *tracks* (Chrome trace ``tid``); their parent is
whatever control span is open when they are recorded.

All timestamps are abstract work units (the currency of
:mod:`repro.galois.simsched`), never wall-clock, which is what makes a
trace byte-reproducible across runs with the same seed — and across
executors: a sharded run on the process pool traces the same bytes
as on the simulated executor.  Physical seconds are metric values
(:class:`repro.obs.metrics.MetricsRegistry` histograms), never
timestamps on this timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

CONTROL_TRACK = 0


@dataclass
class Span:
    """One traced interval.  ``track`` is the Chrome-trace ``tid``:
    0 for control-flow spans, ``1 + worker`` for activity spans."""

    sid: int
    parent: Optional[int]
    name: str
    cat: str
    start: int
    end: int
    track: int = CONTROL_TRACK
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Event:
    """An instantaneous marker (e.g. one lock conflict)."""

    sid: int
    name: str
    cat: str
    ts: int
    track: int = CONTROL_TRACK
    args: Dict[str, Any] = field(default_factory=dict)


class SpanTracer:
    """Collects spans and instant events with deterministic ids.

    Ids are assigned in ``begin``/``record`` call order, which the
    simulated executor makes deterministic; no wall-clock or randomness
    enters a trace.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[Event] = []
        self._stack: List[Span] = []
        self._next_id = 0

    # -- control-flow spans (run/pass/worklist/stage) -------------------

    def begin(self, name: str, cat: str, ts: int, **args: Any) -> Span:
        """Open a nested control span at simulated time ``ts``."""
        span = Span(
            sid=self._take_id(),
            parent=self._stack[-1].sid if self._stack else None,
            name=name,
            cat=cat,
            start=ts,
            end=ts,
            track=CONTROL_TRACK,
            args=dict(args),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, ts: int, **args: Any) -> None:
        """Close ``span`` at simulated time ``ts`` (pops through any
        dangling children so an engine bug cannot corrupt the stack)."""
        span.end = ts
        if args:
            span.args.update(args)
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    # -- leaf spans and instants ----------------------------------------

    def record(
        self, name: str, cat: str, start: int, end: int, track: int, **args: Any
    ) -> Span:
        """Record a completed (possibly overlapping) activity span."""
        span = Span(
            sid=self._take_id(),
            parent=self._stack[-1].sid if self._stack else None,
            name=name,
            cat=cat,
            start=start,
            end=end,
            track=track,
            args=dict(args),
        )
        self.spans.append(span)
        return span

    def instant(
        self, name: str, cat: str, ts: int, track: int = CONTROL_TRACK, **args: Any
    ) -> Event:
        event = Event(
            sid=self._take_id(), name=name, cat=cat, ts=ts, track=track,
            args=dict(args),
        )
        self.events.append(event)
        return event

    # -- queries ---------------------------------------------------------

    def by_cat(self, cat: str) -> List[Span]:
        return [s for s in self.spans if s.cat == cat]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def depth(self, span: Span) -> int:
        """Tree depth of ``span`` (roots are depth 0)."""
        by_id = {s.sid: s for s in self.spans}
        d = 0
        while span.parent is not None:
            span = by_id[span.parent]
            d += 1
        return d

    def _take_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid
