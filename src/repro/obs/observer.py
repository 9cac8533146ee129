"""The observer interface every engine and executor reports through.

``Observer`` itself is the no-op implementation: every hook does
nothing and ``enabled`` is False, so instrumented hot paths can skip
even the cost of building event arguments::

    if obs.enabled:
        obs.activity("rewrite", stage.name, start, end, track=w + 1)

``TracingObserver`` is the real one — a :class:`SpanTracer` plus a
:class:`MetricsRegistry` behind the same hooks.  One observer instance
covers one engine run end to end (executor stages, operator metrics,
engine-level pass/worklist structure), which is what lets a single
``--trace`` flag capture the whole matrix of engines.

:class:`ProgressLine` is the live status line behind ``rewrite
--progress``: a single ``\\r``-rewritten stderr line fed by the
observer (passes, levels, stages) and the shard pool (chunks,
retries), throttled so it never becomes the hot path.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Any, Dict, Optional, TextIO

if TYPE_CHECKING:
    from .tracer import Span


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


class Observer:
    """No-op base observer (the zero-overhead default)."""

    enabled = False

    #: Live progress sink (``--progress``); None = silent.
    progress: Optional[ProgressLine] = None

    # -- tracing hooks ---------------------------------------------------

    def begin(self, name: str, cat: str, ts: int, **args: Any) -> Optional[Span]:
        """Open a control span (run/pass/worklist/stage)."""
        return None

    def end(self, span: Optional[Span], ts: int, **args: Any) -> None:
        """Close a control span."""

    def activity(
        self, name: str, cat: str, start: int, end: int, track: int, **args: Any
    ) -> None:
        """Record one completed (or aborted) activity on a worker track."""

    def instant(self, name: str, cat: str, ts: int, track: int = 0, **args: Any) -> None:
        """Record an instantaneous event (e.g. a lock conflict)."""

    # -- metric hooks ----------------------------------------------------

    def count(self, name: str, n: int = 1, **labels: object) -> None:
        """Increment a counter."""

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Add one observation to a histogram."""

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge."""


#: Shared stateless no-op instance — safe to use as a default anywhere.
NULL_OBSERVER = Observer()


class TracingObserver(Observer):
    """Collects a hierarchical span trace and a metrics registry."""

    enabled = True

    def __init__(self) -> None:
        # Loaded with the first tracing observer: an untraced run builds
        # no span tree and no registry, so it never imports them.
        from .metrics import MetricsRegistry
        from .tracer import SpanTracer

        self.tracer = SpanTracer()
        self.metrics = MetricsRegistry()
        self.progress: Optional[ProgressLine] = None

    def begin(self, name: str, cat: str, ts: int, **args: Any) -> Span:
        if self.progress is not None:
            if cat == "pass":
                self.progress.set(**{"pass": args.get("index", 0) + 1})
            elif cat == "worklist":
                self.progress.set(
                    level=args.get("level", "-"), nodes=args.get("size", "-"),
                )
        return self.tracer.begin(name, cat, ts, **args)

    def end(self, span: Optional[Span], ts: int, **args: Any) -> None:
        if span is not None:
            if self.progress is not None and span.cat == "stage":
                self.progress.bump("stages")
            self.tracer.end(span, ts, **args)

    def activity(
        self, name: str, cat: str, start: int, end: int, track: int, **args: Any
    ) -> None:
        self.tracer.record(name, cat, start, end, track, **args)

    def instant(self, name: str, cat: str, ts: int, track: int = 0, **args: Any) -> None:
        self.tracer.instant(name, cat, ts, track, **args)

    def count(self, name: str, n: int = 1, **labels: object) -> None:
        self.metrics.counter(name, **labels).inc(n)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.metrics.histogram(name, **labels).observe(value)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        self.metrics.gauge(name, **labels).set(value)
