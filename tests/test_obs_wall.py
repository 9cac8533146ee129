"""One clock for a traced shard-pool run, and the live progress line.

The process pool reports through metrics only — fault counters,
shipped snapshot bytes, fan-out and per-shard wall seconds — never
through trace timestamps.  So a traced sharded run on the process pool
must export the same Chrome trace, byte for byte, as the same run on
the simulated executor, with the simulated-clock group (pid 0) as its
only process group.  ``--progress`` is fed by the observer's passes and
levels and by every chunk the pool receives.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json

import pytest

from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core import DACParaRewriter
from repro.obs import ProgressLine, TracingObserver, chrome_trace_json
from repro.obs.export import SIM_CLOCK_PID

from test_procpool import aig_fingerprint, result_fingerprint

JOBS = 2


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
# Integration: a real shard fan-out, traced


def _run(base, kind, config, observer=None):
    aig = copy.deepcopy(base)
    engine = DACParaRewriter(
        config=config.with_executor(kind, JOBS), observer=observer,
    )
    result = engine.run(aig)
    return result, aig


def _sharded(**over):
    return dataclasses.replace(
        dacpara_config(workers=8), shards=4, shard_min_nodes=1, **over)


def _trace(obs):
    return chrome_trace_json(obs.tracer, metadata={"engine": "dacpara"})


@pytest.fixture(scope="module")
def base_aig():
    return mtm_like(num_pis=20, num_nodes=500, seed=5)


@pytest.fixture(scope="module")
def traced_pair(base_aig):
    """The same traced ``shards=4`` run on both executors."""
    runs = {}
    for kind in ("simulated", "process"):
        obs = TracingObserver()
        result, aig = _run(base_aig, kind, _sharded(), observer=obs)
        runs[kind] = (result, aig, obs)
    return runs


class TestProcessTelemetry:
    def test_process_trace_equals_simulated(self, traced_pair):
        r_sim, a_sim, o_sim = traced_pair["simulated"]
        r_proc, a_proc, o_proc = traced_pair["process"]
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        assert _trace(o_proc) == _trace(o_sim)

    def test_trace_has_one_pid(self, traced_pair):
        obs = traced_pair["process"][2]
        doc = json.loads(_trace(obs))
        assert {ev["pid"] for ev in doc["traceEvents"]} == {SIM_CLOCK_PID}
        assert set(doc["otherData"]) == {"engine", "clock"}

    def test_observer_has_no_wall_timeline(self):
        assert not hasattr(TracingObserver(), "wall")

    def test_progress_line_fed_by_run(self, base_aig):
        obs = TracingObserver()
        buf = io.StringIO()
        obs.progress = ProgressLine(stream=buf, min_interval=0.0, force=True)
        _run(base_aig, "process", _sharded(), observer=obs)
        obs.progress.close()
        assert obs.progress.fields.get("chunks", 0) > 0
        assert obs.progress.fields.get("pass", 0) == 1  # the shard pass
        assert "chunks" in buf.getvalue()
