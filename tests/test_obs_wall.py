"""Cross-process wall-clock telemetry: records, timeline, exporters.

The wall-clock layer is a *side channel*: it must (a) place worker
spans and parent instants on one coherent timeline despite being
measured in different processes, (b) never perturb results (the
process executor's byte-identity guarantee holds with telemetry on),
and (c) survive serialization — Chrome traces that Perfetto accepts,
JSONL that parses line by line, Prometheus text that passes a
line-format validator even with hostile label values.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import pickle
import re
import time

import pytest

from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core import DACParaRewriter
from repro.galois import faults
from repro.obs import (
    CHUNK_PHASES,
    ChunkTelemetry,
    ProgressLine,
    TracingObserver,
    WallTimeline,
    chrome_trace_json,
    jsonl_lines,
    prometheus_text,
    wall_breakdown,
    wall_trace_events,
)
from repro.obs.collect import MAX_FLIGHT_DUMPS, WallSpan
from repro.obs.export import SIM_CLOCK_PID, _prom_escape, to_chrome_trace

from test_procpool import aig_fingerprint, result_fingerprint

JOBS = 2


# ---------------------------------------------------------------------------
# ChunkTelemetry (the worker-side record)


class TestChunkTelemetry:
    def test_phase_lifecycle(self):
        tele = ChunkTelemetry.begin("eval", chunk=3, attempt=1, tasks=64)
        tele.enter("patch")
        tele.enter("compute")
        tele.done(results=60)
        names = [name for name, _, _ in tele.phases]
        assert names == ["patch", "compute"]
        assert tele.results == 60
        assert tele.total >= tele.phases[-1][2] - 1e-9
        # Phases tile the measured window: monotone, non-overlapping.
        for (_, s0, e0), (_, s1, e1) in zip(tele.phases, tele.phases[1:]):
            assert s0 <= e0 == s1 <= e1

    def test_phase_seconds_sums_durations(self):
        tele = ChunkTelemetry.begin("enum", chunk=0)
        tele.enter("patch")
        tele.enter("compute")
        tele.done()
        seconds = tele.phase_seconds()
        assert set(seconds) == {"patch", "compute"}
        assert all(v >= 0 for v in seconds.values())

    def test_pickle_drops_process_local_clock(self):
        tele = ChunkTelemetry.begin("eval", chunk=7, tasks=8)
        tele.enter("compute")
        tele.done(results=8)
        clone = pickle.loads(pickle.dumps(tele))
        assert clone.pid == tele.pid
        assert clone.phases == tele.phases
        assert clone.total == tele.total
        # The perf_counter origin must not travel between processes.
        assert clone._perf0 == 0.0 and clone._open is None

    def test_as_dict_is_json_clean(self):
        tele = ChunkTelemetry.begin("eval", chunk=1, attempt=2, tasks=16)
        tele.enter("patch")
        tele.done(results=16)
        payload = json.loads(json.dumps(tele.as_dict()))
        assert payload["stage"] == "eval"
        assert payload["attempt"] == 2
        assert payload["phases"][0]["phase"] == "patch"

    def test_canonical_phase_order(self):
        assert CHUNK_PHASES == ("receive", "patch", "compute", "serialize")


# ---------------------------------------------------------------------------
# WallTimeline (the parent-side merge)


def _finished_tele(stage="eval", chunk=0, attempt=0, tasks=4, pid=None):
    tele = ChunkTelemetry.begin(stage, chunk, attempt, tasks)
    tele.enter("patch")
    tele.enter("compute")
    tele.done(results=tasks)
    if pid is not None:
        tele.pid = pid  # simulate a record from a pool worker
    return tele


class TestWallTimeline:
    def test_add_chunk_derives_ipc_phases(self):
        wall = WallTimeline()
        submit = time.time()
        tele = _finished_tele()
        phases = wall.add_chunk(tele, submit, time.time())
        # All four pipeline phases plus the end-to-end total.
        assert set(phases) == set(CHUNK_PHASES) | {"total"}
        assert all(v >= 0 for v in phases.values())
        assert wall.chunks == 1
        names = {s.name for s in wall.spans if s.cat == "chunk"}
        assert names == set(CHUNK_PHASES)

    def test_add_chunk_clamps_clock_skew(self):
        wall = WallTimeline()
        tele = _finished_tele()
        # A submit timestamp *after* the worker anchor (clock skew /
        # coarse clock): the derived receive gap must clamp at zero,
        # never go negative.
        phases = wall.add_chunk(tele, tele.anchor + 5.0, tele.anchor)
        assert phases["receive"] == 0.0
        assert phases["total"] == 0.0
        assert all(s.end >= s.start for s in wall.spans)

    def test_flight_ring_is_bounded(self):
        wall = WallTimeline(flight_size=3)
        now = time.time()
        for i in range(10):
            wall.add_chunk(_finished_tele(chunk=i), now, time.time())
        assert len(wall.flight) == 3
        assert [r["chunk"] for r in wall.flight] == [7, 8, 9]

    def test_dump_flight_snapshots_and_is_bounded(self):
        wall = WallTimeline(flight_size=4)
        wall.add_chunk(_finished_tele(chunk=9), time.time(), time.time())
        dump = wall.dump_flight("chunk_quarantined", stage="eval")
        assert dump["reason"] == "chunk_quarantined"
        assert dump["records"][0]["chunk"] == 9
        for _ in range(3 * MAX_FLIGHT_DUMPS):
            wall.dump_flight("pool_restart")
        assert len(wall.dumps) == MAX_FLIGHT_DUMPS

    def test_parent_span_and_instant(self):
        wall = WallTimeline()
        t = time.time()
        span = wall.parent_span("eval_fanout", t, t + 1.0, chunks=4)
        assert span.pid == wall.parent_pid and span.cat == "fanout"
        event = wall.instant("chunk_timeout", chunk=2)
        assert event.cat == "fault" and event.args["chunk"] == 2
        assert bool(wall)

    def test_empty_timeline_is_falsy(self):
        assert not WallTimeline()

    def test_utilization_interval_union(self):
        wall = WallTimeline()
        # Two workers: pid 100 busy [0,2] (two overlapping spans that
        # must not double-count), pid 200 busy [1,3].
        wall.spans = [
            WallSpan("compute", "chunk", 100, 0.0, 1.5),
            WallSpan("compute", "chunk", 100, 1.0, 2.0),
            WallSpan("compute", "chunk", 200, 1.0, 3.0),
        ]
        u = wall.utilization(jobs=2)
        assert u["busy_seconds"] == pytest.approx(4.0)
        assert u["window_seconds"] == pytest.approx(3.0)
        assert u["utilization"] == pytest.approx(4.0 / 6.0)
        assert u["peak_concurrency"] == 2.0
        assert u["workers_seen"] == 2.0

    def test_utilization_empty(self):
        u = WallTimeline().utilization()
        assert u["utilization"] == 0.0 and u["peak_concurrency"] == 0.0


# ---------------------------------------------------------------------------
# ProgressLine


class TestProgressLine:
    def test_silent_off_terminal(self):
        buf = io.StringIO()
        line = ProgressLine(stream=buf)
        line.set(level=3)
        line.close()
        assert buf.getvalue() == ""

    def test_forced_rendering_and_bump(self):
        buf = io.StringIO()
        line = ProgressLine(stream=buf, min_interval=0.0, force=True)
        line.set(level=3, nodes=120)
        line.bump("chunks")
        line.bump("chunks")
        line.close()
        out = buf.getvalue()
        assert "level 3" in out and "chunks 2" in out
        assert out.endswith("\n")
        assert line.fields["chunks"] == 2

    def test_throttling(self):
        buf = io.StringIO()
        line = ProgressLine(stream=buf, min_interval=3600.0, force=True)
        for _ in range(50):
            line.bump("chunks")
        # First render goes through; the rest are throttled.
        assert line.renders == 1


# ---------------------------------------------------------------------------
# Prometheus exposition: escaping + line-format validation

# One sample line: name{labels} value  (HELP/TYPE comments aside).
_PROM_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'                      # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*")*\})?'
    r' -?[0-9].*$'
)


def validate_prometheus(text: str):
    """Assert every line is a comment or a well-formed sample line."""
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        assert _PROM_SAMPLE.match(line), f"line {lineno} malformed: {line!r}"


class TestPrometheusEscaping:
    def test_escape_rules(self):
        assert _prom_escape('plain') == 'plain'
        assert _prom_escape('a"b') == 'a\\"b'
        assert _prom_escape('a\\b') == 'a\\\\b'
        assert _prom_escape('a\nb') == 'a\\nb'
        # Backslash first, so an existing \n sequence is not mangled
        # into a bare backslash + newline.
        assert _prom_escape('\\n') == '\\\\n'

    def test_hostile_label_values_stay_one_line(self):
        obs = TracingObserver()
        obs.count("stage_runs_total", 1, stage='ev"al\n{x}')
        obs.gauge("pool_utilization", 0.5, backend="a\\b")
        obs.observe("chunk_wall_seconds", 0.01, stage='q"', phase="patch")
        text = prometheus_text(obs.metrics)
        validate_prometheus(text)
        # The quote is escaped in place, not truncating the line.
        assert 'stage="ev\\"al\\n{x}"' in text
        assert 'backend="a\\\\b"' in text

    def test_plain_metrics_still_validate(self):
        obs = TracingObserver()
        obs.count("activities_total", 7, stage="eval")
        obs.observe("chunk_wall_seconds", 0.2, stage="eval", phase="compute")
        validate_prometheus(prometheus_text(obs.metrics))


# ---------------------------------------------------------------------------
# Exporter round-trips (synthetic timeline)


def _synthetic_observation():
    obs = TracingObserver()
    span = obs.begin("run", "run", 0)
    obs.activity("commit", "eval", 0, 10, track=1, node=4)
    obs.end(span, 10)
    obs.count("stage_runs_total", 1, stage="eval")
    wall = obs.wall
    now = time.time()
    # A distinct pid stands in for a pool worker (the synthetic record
    # is built in-process, where os.getpid() would equal the parent's).
    wall.add_chunk(_finished_tele(chunk=0, pid=wall.parent_pid + 1),
                   now, time.time())
    wall.parent_span("eval_fanout", now, time.time(), chunks=1)
    wall.instant("chunk_retry", chunk=0, attempt=1)
    wall.dump_flight("chunk_quarantined", chunk=0)
    return obs


class TestExportRoundTrip:
    def test_chrome_trace_parses_with_wall_tracks(self):
        obs = _synthetic_observation()
        doc = json.loads(chrome_trace_json(
            obs.tracer, metadata={"engine": "t"}, wall=obs.wall))
        events = doc["traceEvents"]
        for ev in events:
            assert ev["ph"] in ("M", "X", "i")
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], int) and ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
        # Both clock domains present, under different pid groups.
        pids = {ev["pid"] for ev in events}
        assert SIM_CLOCK_PID in pids and len(pids) >= 2
        wall_cats = {ev.get("cat", "") for ev in events
                     if ev["pid"] != SIM_CLOCK_PID and ev["ph"] != "M"}
        assert all(c.startswith("wall.") for c in wall_cats)
        meta = doc["otherData"]["wall_clock"]
        assert meta["chunks"] == 1 and meta["flight_dumps"] == 1
        # Every wall pid group is labelled for Perfetto.
        labelled = {ev["pid"] for ev in events
                    if ev["ph"] == "M" and ev["name"] == "process_name"}
        assert pids <= labelled

    def test_chrome_trace_without_wall_unchanged(self):
        obs = _synthetic_observation()
        doc = to_chrome_trace(obs.tracer)
        assert {ev["pid"] for ev in doc["traceEvents"]} == {SIM_CLOCK_PID}
        assert "wall_clock" not in doc["otherData"]

    def test_jsonl_lines_parse_and_cover_wall_kinds(self):
        obs = _synthetic_observation()
        kinds = set()
        for line in jsonl_lines(obs.tracer, obs.metrics, wall=obs.wall):
            kinds.add(json.loads(line)["kind"])
        assert {"span", "wall_span", "wall_instant",
                "flight_dump", "metrics"} <= kinds

    def test_wall_trace_events_label_parent_and_workers(self):
        obs = _synthetic_observation()
        names = {ev["args"]["name"] for ev in wall_trace_events(obs.wall)
                 if ev["ph"] == "M"}
        assert any(n == "wall-clock parent" for n in names)
        assert any(n.startswith("wall-clock worker") for n in names)

    def test_wall_breakdown_table(self):
        obs = _synthetic_observation()
        headers, rows = wall_breakdown(obs.wall)
        assert headers[0] == "WorkerPid"
        assert len(rows) == 1  # the one (synthetic) worker pid
        assert rows[0][1] == 1  # one chunk


# ---------------------------------------------------------------------------
# Integration: a real process fan-out populates the timeline
# without perturbing results


def _run(base, kind, config, observer=None):
    aig = copy.deepcopy(base)
    engine = DACParaRewriter(
        config=config.with_executor(kind, JOBS), observer=observer,
    )
    result = engine.run(aig)
    return result, aig


@pytest.fixture(scope="module")
def base_aig():
    return mtm_like(num_pis=20, num_nodes=500, seed=5)


class TestProcessTelemetry:
    def test_worker_tracks_and_byte_identity(self, base_aig):
        cfg = dacpara_config(workers=8)
        r_sim, a_sim = _run(base_aig, "simulated", cfg)
        obs = TracingObserver()
        r_proc, a_proc = _run(base_aig, "process", cfg, observer=obs)
        # Telemetry is a side channel: results stay byte-identical.
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        wall = obs.wall
        assert wall.chunks > 0
        assert len(wall.worker_pids()) >= 1
        # Fan-out windows recorded on the parent track.
        fanouts = [s for s in wall.spans if s.cat == "fanout"]
        assert fanouts and all(s.pid == wall.parent_pid for s in fanouts)
        # Phase histograms populated for worker-measured phases.
        hists = {
            name: h for name, labels, h in obs.metrics.histograms()
            if name == "chunk_wall_seconds"
        }
        assert hists and all(h.count > 0 for h in hists.values())
        phases = {
            dict(labels).get("phase")
            for name, labels, _ in obs.metrics.histograms()
            if name == "chunk_wall_seconds"
        }
        assert set(CHUNK_PHASES) <= phases
        # Occupancy gauges derived from span overlap.
        gauges = {name: g.value for name, _, g in obs.metrics.gauges()}
        assert 0.0 < gauges["pool_utilization"] <= 1.0
        assert gauges["pool_workers_seen"] >= 1.0

    def test_fault_instants_and_flight_dump(self, base_aig, monkeypatch):
        monkeypatch.setattr(faults, "CHUNK_MAX_RETRIES", 1)
        cfg = dataclasses.replace(
            dacpara_config(workers=8),
            fault_plan="raise@eval:0:99",  # poison chunk: retries out
        )
        r_sim, a_sim = _run(base_aig, "simulated", dacpara_config(workers=8))
        obs = TracingObserver()
        r_proc, a_proc = _run(base_aig, "process", cfg, observer=obs)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        names = [e.name for e in obs.wall.events]
        assert "chunk_retry" in names and "chunk_quarantined" in names
        assert obs.wall.dumps
        assert obs.wall.dumps[-1]["reason"] == "chunk_quarantined"

    def test_progress_line_fed_by_run(self, base_aig):
        obs = TracingObserver()
        buf = io.StringIO()
        obs.progress = ProgressLine(stream=buf, min_interval=0.0, force=True)
        _run(base_aig, "process", dacpara_config(workers=8), observer=obs)
        obs.progress.close()
        assert obs.progress.fields.get("chunks", 0) > 0
        assert obs.progress.fields.get("stages", 0) > 0
        assert "chunks" in buf.getvalue()
