"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro.bench import make_epfl
from repro.config import dacpara_config, iccad18_config
from repro.core import DACParaRewriter
from repro.galois import ExecutionStats, Phase, SimulatedExecutor, StageStats
from repro.obs import (
    MetricsRegistry,
    NULL_OBSERVER,
    Observer,
    TracingObserver,
    chrome_trace_json,
    jsonl_lines,
    level_breakdown,
    stage_breakdown,
    stage_breakdown_from_tracer,
    to_chrome_trace,
)
from repro.rewrite import LockFusedRewriter, SerialRewriter, StaticRewriter
from repro.config import abc_rewrite_config, gpu_config

from conftest import random_aig


def _traced_run(workers: int = 8, seed: int = 3):
    obs = TracingObserver()
    aig = random_aig(num_pis=6, num_nodes=120, num_pos=4, seed=seed)
    engine = DACParaRewriter(dacpara_config(workers=workers), observer=obs)
    result = engine.run(aig)
    return obs, engine, result


class TestTracer:
    def test_span_hierarchy_levels(self):
        """A traced DACPara run contains the full run → pass → worklist
        → stage chain with correct parenting."""
        obs, _, _ = _traced_run()
        tracer = obs.tracer
        runs = tracer.by_cat("run")
        assert len(runs) == 1
        passes = tracer.by_cat("pass")
        assert passes and all(p.parent == runs[0].sid for p in passes)
        worklists = tracer.by_cat("worklist")
        pass_ids = {p.sid for p in passes}
        assert worklists and all(w.parent in pass_ids for w in worklists)
        stages = tracer.by_cat("stage")
        wl_ids = {w.sid for w in worklists}
        assert stages and all(s.parent in wl_ids for s in stages)
        assert {s.name for s in stages} <= {"enum", "eval", "replace"}

    def test_activity_spans_on_worker_tracks(self):
        obs, _, _ = _traced_run(workers=4)
        acts = [s for s in obs.tracer.spans if s.name in ("commit", "abort")]
        assert acts
        assert all(1 <= s.track <= 4 for s in acts)
        stage_ids = {s.sid for s in obs.tracer.by_cat("stage")}
        assert all(s.parent in stage_ids for s in acts)

    def test_deterministic_span_ordering(self):
        """Same seed, same engine → identical span sequence and ids."""
        a, _, _ = _traced_run(seed=7)
        b, _, _ = _traced_run(seed=7)
        sa = [(s.sid, s.name, s.cat, s.start, s.end, s.track) for s in a.tracer.spans]
        sb = [(s.sid, s.name, s.cat, s.start, s.end, s.track) for s in b.tracer.spans]
        assert sa == sb

    def test_span_timestamps_are_work_units(self):
        """Span ends never precede starts and the run span covers the
        engine's reported makespan."""
        obs, _, result = _traced_run()
        for span in obs.tracer.spans:
            assert span.end >= span.start
        run = obs.tracer.by_cat("run")[0]
        assert run.duration == result.makespan_units


class TestNoopObserver:
    def test_null_observer_is_disabled(self):
        assert NULL_OBSERVER.enabled is False
        assert Observer.enabled is False

    def test_noop_observer_adds_zero_stage_stats(self):
        """Executor stats are bit-identical with and without the no-op
        observer (and the no-op observer records nothing anywhere)."""

        def op(item):
            yield Phase(locks={item % 3}, cost=item + 1)

        def stats_of(observer):
            ex = SimulatedExecutor(workers=3, observer=observer)
            st = ex.run("s", list(range(20)), op)
            return (st.makespan, st.committed, st.conflicts,
                    st.useful_units, st.aborted_units)

        assert stats_of(None) == stats_of(NULL_OBSERVER) == stats_of(Observer())

    def test_observed_run_equals_unobserved_run(self):
        """Tracing must not perturb the engine: same result record."""
        aig1 = random_aig(num_pis=6, num_nodes=120, num_pos=4, seed=5)
        aig2 = random_aig(num_pis=6, num_nodes=120, num_pos=4, seed=5)
        plain = DACParaRewriter(dacpara_config(workers=8)).run(aig1)
        traced = DACParaRewriter(
            dacpara_config(workers=8), observer=TracingObserver()
        ).run(aig2)
        assert plain.to_dict() == traced.to_dict()


class TestChromeExport:
    def test_round_trips_through_json_loads(self):
        obs, _, _ = _traced_run()
        text = chrome_trace_json(obs.tracer)
        doc = json.loads(text)
        assert doc["traceEvents"]
        assert doc["otherData"]["clock"] == "simulated-work-units"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0 and event["ts"] >= 0

    def test_byte_identical_across_runs(self):
        a, _, _ = _traced_run(seed=11)
        b, _, _ = _traced_run(seed=11)
        assert chrome_trace_json(a.tracer) == chrome_trace_json(b.tracer)

    def test_thread_names_present(self):
        obs, _, _ = _traced_run(workers=2)
        doc = to_chrome_trace(obs.tracer)
        names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert "control" in names and "worker-0" in names

    def test_jsonl_lines_parse(self):
        obs, _, _ = _traced_run()
        lines = list(jsonl_lines(obs.tracer, obs.metrics))
        objs = [json.loads(line) for line in lines]
        kinds = {o["kind"] for o in objs}
        assert kinds == {"span", "instant", "metrics"} - (
            set() if obs.tracer.events else {"instant"}
        )


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("hits", stage="eval").inc(3)
        reg.counter("hits", stage="eval").inc()
        reg.gauge("depth").set(17)
        h = reg.histogram("gain")
        for v in (0, 1, 2, 30):
            h.observe(v)
        snap = reg.snapshot()
        assert snap["counters"]['hits{stage=eval}'] == 4
        assert snap["gauges"]["depth"] == 17
        assert snap["histograms"]["gain"]["count"] == 4
        assert snap["histograms"]["gain"]["min"] == 0
        assert snap["histograms"]["gain"]["max"] == 30
        assert snap["histograms"]["gain"]["sum"] == 33

    def test_engine_metrics_captured(self):
        """The run populates the paper-motivated metric families."""
        obs, _, result = _traced_run()
        snap = obs.metrics.snapshot()
        assert snap["histograms"]["cuts_per_node"]["count"] > 0
        assert snap["histograms"]["worklist_occupancy"]["count"] > 0
        assert any(k.startswith("npn_class_hits_total") for k in snap["counters"])
        committed = sum(
            v for k, v in snap["counters"].items()
            if k.startswith("committed_total")
        )
        assert committed > 0
        if result.replacements:
            assert snap["counters"]["replacements_total"] == result.replacements
            assert snap["histograms"]["applied_gain"]["count"] == result.replacements


class TestStatsSatellites:
    def test_parallel_efficiency_zero_makespan_with_stages(self):
        stats = ExecutionStats(workers=4)
        stats.stages.append(StageStats(name="s"))
        assert stats.makespan == 0
        assert stats.parallel_efficiency == 0.0

    def test_parallel_efficiency_no_stages(self):
        assert ExecutionStats(workers=4).parallel_efficiency == 1.0

    def test_parallel_efficiency_normal(self):
        stats = ExecutionStats(workers=2)
        stats.stages.append(
            StageStats(name="s", useful_units=10, start_time=0, end_time=10)
        )
        assert stats.parallel_efficiency == 0.5

    def test_conflict_rate(self):
        stats = ExecutionStats(workers=2)
        stats.stages.append(StageStats(name="a", committed=6, conflicts=2))
        stats.stages.append(StageStats(name="b", committed=2, conflicts=0))
        assert stats.conflict_rate == 0.2
        assert stats.stages[0].conflict_rate == 0.25
        assert StageStats(name="empty").conflict_rate == 0.0


class TestProfileBreakdowns:
    def test_stage_breakdown_from_stats_and_tracer_agree(self):
        obs, engine, _ = _traced_run()
        h1, rows1 = stage_breakdown(engine.last_stats)
        h2, rows2 = stage_breakdown_from_tracer(obs.tracer)
        # The stats version carries one extra column — wall-clock, which
        # only the executor knows (the trace clock is simulated units).
        assert h1[-1] == "WallSeconds"
        assert h1[:-1] == h2
        assert [r[:-1] for r in rows1] == rows2

    def test_level_breakdown_rows(self):
        obs, _, _ = _traced_run(workers=4)
        headers, rows = level_breakdown(obs.tracer, workers=4)
        assert rows
        levels = [r[1] for r in rows]
        assert levels == sorted(levels)  # first pass ascends by level


class TestAllEnginesTraceable:
    @pytest.mark.parametrize("make", [
        lambda obs: SerialRewriter(abc_rewrite_config(), observer=obs),
        lambda obs: LockFusedRewriter(iccad18_config(workers=4), observer=obs),
        lambda obs: DACParaRewriter(dacpara_config(workers=4), observer=obs),
        lambda obs: StaticRewriter(gpu_config(workers=16), observer=obs),
    ])
    def test_engine_emits_trace(self, make):
        obs = TracingObserver()
        aig = random_aig(num_pis=6, num_nodes=80, num_pos=4, seed=2)
        make(obs).run(aig)
        assert obs.tracer.by_cat("run")
        assert obs.tracer.by_cat("pass")
        assert obs.tracer.by_cat("stage")
        json.loads(chrome_trace_json(obs.tracer))  # must serialize


class TestCliObservability:
    @pytest.fixture
    def circuit_file(self, tmp_path):
        from repro.aig import write_aag

        aig = random_aig(num_pis=5, num_nodes=60, num_pos=4, seed=9)
        path = tmp_path / "c.aag"
        write_aag(aig, path)
        return str(path)

    def test_rewrite_trace_and_metrics_files(self, circuit_file, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "t.trace.json")
        events = str(tmp_path / "e.jsonl")
        code = main([
            "rewrite", circuit_file, "--engine", "dacpara", "--workers", "4",
            "--trace", trace, "--events", events,
        ])
        assert code == 0
        doc = json.loads(open(trace).read())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"run", "pass", "worklist", "stage"} <= cats
        # The metrics registry rides the JSONL stream as its last record.
        last = json.loads(open(events).read().splitlines()[-1])
        assert last["kind"] == "metrics"
        assert last["snapshot"]["counters"]

    def test_rewrite_trace_reproducible(self, circuit_file, tmp_path, capsys):
        from repro.cli import main

        t1, t2 = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
        for t in (t1, t2):
            assert main([
                "rewrite", circuit_file, "--engine", "dacpara",
                "--workers", "4", "--trace", t,
            ]) == 0
        assert open(t1, "rb").read() == open(t2, "rb").read()

    def test_rewrite_json_output(self, circuit_file, capsys):
        from repro.cli import main

        assert main([
            "rewrite", circuit_file, "--engine", "dacpara", "--workers", "4",
            "--json", "--verify",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["engine"] == "dacpara"
        assert payload["equivalence"]["equivalent"] is True
        assert payload["metrics"]["counters"]

    def test_stats_json(self, circuit_file, capsys):
        from repro.cli import main

        assert main(["stats", circuit_file, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["pis"] == 5 and record["ands"] > 0

    def test_profile_command(self, circuit_file, capsys):
        from repro.cli import main

        assert main(["profile", circuit_file, "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "per-stage breakdown" in out
        assert "per-level worklist breakdown" in out
        assert "eval" in out
