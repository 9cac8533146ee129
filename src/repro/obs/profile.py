"""Per-stage / per-level breakdown tables (the ``repro profile`` view).

Answers the paper's "where does the time go" questions from one traced
run: which stage dominates (evaluation should be ~90 %), where
conflicts and aborted work concentrate, and how much of each per-level
worklist's window the workers actually spend busy (barrier idle time —
the deep-circuit slowdown of ``sqrt``/``hyp``/``div``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..galois.stats import ExecutionStats
from .tracer import SpanTracer


def stage_breakdown(stats: ExecutionStats) -> Tuple[List[str], List[List[str]]]:
    """Aggregate executor stages by name: activity, conflict and work
    totals plus each stage's share of the total makespan."""
    order: List[str] = []
    agg: Dict[str, Dict[str, int]] = {}
    for stage in stats.stages:
        if stage.name not in agg:
            order.append(stage.name)
            agg[stage.name] = {
                "runs": 0, "activities": 0, "committed": 0, "conflicts": 0,
                "useful": 0, "aborted": 0, "span": 0, "retries": 0,
                "wall": 0.0,
            }
        acc = agg[stage.name]
        acc["runs"] += 1
        acc["activities"] += stage.activities
        acc["committed"] += stage.committed
        acc["conflicts"] += stage.conflicts
        acc["useful"] += stage.useful_units
        acc["aborted"] += stage.aborted_units
        acc["span"] += stage.makespan
        acc["retries"] += stage.retries
        acc["wall"] += stage.wall_seconds
    total_span = sum(acc["span"] for acc in agg.values()) or 1
    headers = ["Stage", "Runs", "Activities", "Committed", "Conflicts",
               "ConflictRate", "UsefulUnits", "AbortedUnits", "SpanShare",
               "WallSeconds"]
    rows = []
    for name in order:
        acc = agg[name]
        attempts = acc["committed"] + acc["conflicts"]
        rate = acc["conflicts"] / attempts if attempts else 0.0
        rows.append([
            name, acc["runs"], acc["activities"], acc["committed"],
            acc["conflicts"], f"{rate:.3f}", acc["useful"], acc["aborted"],
            f"{100.0 * acc['span'] / total_span:.1f}%",
            f"{acc['wall']:.3f}",
        ])
    return headers, rows


def stage_breakdown_from_tracer(tracer: SpanTracer) -> Tuple[List[str], List[List[str]]]:
    """Same aggregation as :func:`stage_breakdown`, but from the trace's
    stage spans — works for any engine that was run with a
    :class:`TracingObserver`, without access to its executor."""
    order: List[str] = []
    agg: Dict[str, Dict[str, int]] = {}
    for span in tracer.by_cat("stage"):
        if span.name not in agg:
            order.append(span.name)
            agg[span.name] = {
                "runs": 0, "activities": 0, "committed": 0, "conflicts": 0,
                "useful": 0, "aborted": 0, "span": 0,
            }
        acc = agg[span.name]
        acc["runs"] += 1
        acc["activities"] += span.args.get("activities", 0)
        acc["committed"] += span.args.get("committed", 0)
        acc["conflicts"] += span.args.get("conflicts", 0)
        acc["useful"] += span.args.get("useful_units", 0)
        acc["aborted"] += span.args.get("aborted_units", 0)
        acc["span"] += span.duration
    total_span = sum(acc["span"] for acc in agg.values()) or 1
    headers = ["Stage", "Runs", "Activities", "Committed", "Conflicts",
               "ConflictRate", "UsefulUnits", "AbortedUnits", "SpanShare"]
    rows = []
    for name in order:
        acc = agg[name]
        attempts = acc["committed"] + acc["conflicts"]
        rate = acc["conflicts"] / attempts if attempts else 0.0
        rows.append([
            name, acc["runs"], acc["activities"], acc["committed"],
            acc["conflicts"], f"{rate:.3f}", acc["useful"], acc["aborted"],
            f"{100.0 * acc['span'] / total_span:.1f}%",
        ])
    return headers, rows


def level_breakdown(
    tracer: SpanTracer, workers: int
) -> Tuple[List[str], List[List[str]]]:
    """Per-worklist occupancy and busy/idle split, from worklist spans.

    ``busy`` is useful work divided by ``workers × window``: the rest
    of each window is barrier idle time (workers waiting for the level
    to drain) plus aborted work.
    """
    headers = ["Worklist", "Level", "Nodes", "WindowUnits", "UsefulUnits",
               "Busy", "Idle"]
    rows = []
    for i, span in enumerate(tracer.by_cat("worklist")):
        useful = sum(
            child.args.get("useful_units", 0)
            for child in tracer.children(span)
            if child.cat == "stage"
        )
        window = span.duration
        busy = useful / (workers * window) if window else 0.0
        rows.append([
            i, span.args.get("level", "-"), span.args.get("size", "-"),
            window, useful, f"{100.0 * busy:.1f}%",
            f"{100.0 * (1.0 - busy):.1f}%",
        ])
    return headers, rows


def format_profile(
    tracer: SpanTracer,
    workers: int,
    stats: "ExecutionStats | None" = None,
) -> str:
    """The breakdown tables as one printable report.  ``stats`` (when
    the caller holds the executor) gives exact stage numbers; otherwise
    they are reconstructed from the trace's stage spans."""
    from ..experiments.tables import format_table  # avoid an import cycle

    parts = ["== per-stage breakdown =="]
    if stats is not None:
        headers, rows = stage_breakdown(stats)
    else:
        headers, rows = stage_breakdown_from_tracer(tracer)
    parts.append(format_table(headers, rows))
    headers, rows = level_breakdown(tracer, workers)
    if rows:
        parts.append("")
        parts.append("== per-level worklist breakdown ==")
        parts.append(format_table(headers, rows))
    return "\n".join(parts)
