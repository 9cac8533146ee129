"""Self-checks of the ladder benchmark on tiny circuits.

Not part of tier-1 (``testpaths = ["tests"]``); run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/ladder -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import child
import run
from calibrate import REFERENCE_S, slices
from circuits import WORKLOADS, Workload, inproc_config, sharded_config
from metrics import CATALOGUE, NAME_RE
from spans import TARGETS, Target, Tracer

from repro.aig import read_aiger, write_aig
from repro.bench.generators import mtm_like
from repro.sat import check_equivalence

SEED = 3


def _tiny_base():
    return mtm_like(16, 1500, seed=11)


TINY = Workload("tiny_inproc", "test only", _tiny_base, inproc_config)
TINY_SHARDED = Workload("tiny_sharded", "test only", _tiny_base,
                        sharded_config)


@pytest.fixture(scope="module")
def traced_inproc():
    return child.run_once(TINY, SEED, True, 2, time.time())


@pytest.fixture(scope="module")
def traced_sharded():
    return child.run_once(TINY_SHARDED, SEED, True, 2, time.time())


def _assert_split_sums(layers):
    parts = sum(layers[name] for name in CATALOGUE.summed())
    total = layers["run.total_s"]
    assert parts + layers["run.unattributed_s"] == pytest.approx(
        total, abs=1e-6)
    assert layers["run.unattributed_ratio"] <= 0.10


def test_layer_self_times_sum_to_the_total(traced_inproc, traced_sharded):
    for record, _aig in (traced_inproc, traced_sharded):
        assert record["failures"] == []
        assert record["untraced"] == []
        _assert_split_sums(record["layers"])


def test_every_emitted_name_is_catalogued_and_clean(traced_inproc):
    record, _aig = traced_inproc
    report = run.summarize(TINY, 2, [record], traced=record)
    emitted = set(report["per_layer"])
    assert emitted == {m.name for m in CATALOGUE.per_layer()}
    plain = run.summarize(TINY, 2, [record])
    emitted |= set(plain["end_to_end"])
    for name in emitted:
        assert NAME_RE.match(name) and CATALOGUE[name].name == name
    line = json.loads(run.contract_line(plain, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(v["value"] != 0 for v in line["metrics"].values())
    with pytest.raises(KeyError, match="undeclared metric"):
        CATALOGUE.checked({"cuts.not_a_metric": 1.0})


def test_manifest_matches_the_catalogue_and_the_workload_table():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest()
    assert [w["name"] for w in committed["workloads"]] == \
        [w.name for w in WORKLOADS]
    assert any(m["name"] == "setup_s" for m in committed["end_to_end"])


def test_bogus_target_lands_in_untraced():
    bogus = Target("repro.core.partition", "no_such_function",
                   ("partition.plan_regions_s",))
    gone = Target("repro.no_such_module", "f", ("shards.splice_s",))
    with Tracer(TARGETS[:2] + (bogus, gone)) as tracer:
        pass
    assert tracer.untraced == ["repro.core.partition:no_such_function",
                               "repro.no_such_module:f"]
    summary = tracer.summary()
    assert summary["partition.plan_regions_s"] is None
    assert summary["shards.splice_s"] is None
    assert summary["partition.node_dividing_s"]["calls"] == 0


def test_rebound_names_are_patched_and_restored():
    import repro.core.dacpara as dacpara
    import repro.core.partition as partition

    original = partition.node_dividing
    assert dacpara.node_dividing is original
    with Tracer():
        assert partition.node_dividing is not original
        assert dacpara.node_dividing is partition.node_dividing
    assert partition.node_dividing is original
    assert dacpara.node_dividing is original


def test_inproc_run_reads_zero_on_every_pool_metric(traced_inproc):
    layers = traced_inproc[0]["layers"]
    for name in ("procpool.run_enum_s", "procpool.run_eval_s",
                 "procpool.run_shards_s", "procpool.chunk_retries",
                 "procpool.pool_restarts", "procpool.chunk_fallbacks",
                 "procpool.quarantined", "procpool.bytes_shipped",
                 "snapshot.capture_s", "shards.splice_s"):
        assert layers[name] == 0, name
    assert layers["cuts.merge_kernel_s"] > 0
    assert layers["cuts.fresh_cuts_calls"] > 0


def test_sharded_run_shows_its_layers(traced_sharded):
    layers = traced_sharded[0]["layers"]
    assert layers["procpool.run_shards_s"] > 0
    assert layers["partition.plan_regions_s"] > 0
    assert layers["partition.shards_planned"] >= 2
    assert layers["partition.boundary_frozen"] > 0
    assert layers["shards.worker_wall_max_s"] <= \
        layers["shards.worker_wall_sum_s"]
    assert layers["shards.imbalance_ratio"] >= 1.0
    assert layers["procpool.bytes_shipped"] > 0
    assert layers["shards.cleanup_region_nodes"] > 0
    assert layers["shards.cleanup_run_s"] > 0
    # Kernel counters of a sharded run never reach the parent's observer.
    assert layers["cuts.merge_pairs"] is None


def test_corrupted_output_is_counted_as_a_failed_run(traced_inproc):
    record, aig = traced_inproc
    reference = _input_file_aig(TINY, SEED)
    from repro.aig import random_simulation

    signature = random_simulation(reference, child.SIGNATURE_BITS, SEED)
    assert child.verify_output(aig, signature, SEED, {}) == []
    aig.set_po(0, aig.po_lit(0) ^ 1)
    try:
        failures = child.verify_output(aig, signature, SEED, {})
    finally:
        aig.set_po(0, aig.po_lit(0) ^ 1)
    assert failures == ["signature_mismatch"]
    corrupted = dict(record, failures=failures)
    report = run.summarize(TINY, 2, [record, corrupted])
    assert (report["runs"], report["failed_runs"]) == (2, 1)
    assert report["end_to_end"]["nodes_per_s"]["n"] == 1
    assert json.loads(run.contract_line(report, False))["correct"] is False


def test_timings_are_scaled_by_the_speed_factor(traced_inproc):
    record = dict(traced_inproc[0], failures=[])
    slow = dict(record, nodes_per_s=record["nodes_per_s"] / 3,
                cpu_s=record["cpu_s"] * 3)
    # A machine at half the reference speed, with one disturbed slice.
    cal_s = [2 * REFERENCE_S] * 7 + [9 * REFERENCE_S]
    report = run.summarize(TINY, 2, [record, slow], cal_s=cal_s)
    assert report["calibration"]["calibration.speed_factor"] == \
        pytest.approx(0.5)
    rows = report["end_to_end"]
    assert rows["nodes_per_s"]["value"] == \
        pytest.approx(2 * record["nodes_per_s"])  # best child, not median
    assert rows["cpu_s"]["value"] == pytest.approx(record["cpu_s"] / 2)
    assert rows["setup_s"]["value"] == pytest.approx(record["setup_s"] / 2)
    assert rows["setup_s"]["raw_median"] == record["setup_s"]
    for untimed in ("peak_rss_mb", "area_reduction_pct", "depth_after"):
        assert rows[untimed]["value"] == record[untimed]
    assert all(0.2 * REFERENCE_S < s < 20 * REFERENCE_S for s in slices(2))


def test_repeat_that_disagrees_with_its_siblings_is_failed(traced_inproc):
    record = dict(traced_inproc[0], failures=[])
    odd = dict(record, failures=[], area_after=record["area_after"] + 1)
    records = [dict(record, failures=[]), odd, dict(record, failures=[])]
    run.flag_disagreements(records)
    assert [bool(r["failures"]) for r in records] == [False, True, False]


def _input_file_aig(workload, seed):
    """The circuit exactly as the child hands it to the program."""
    path = child.WORK_DIR / f"test-{workload.name}-{seed}.aig"
    child.WORK_DIR.mkdir(exist_ok=True)
    try:
        write_aig(workload.build(seed), path)
        return read_aiger(path)
    finally:
        path.unlink(missing_ok=True)


def test_tiny_tier_outputs_are_proved_equivalent(traced_inproc,
                                                 traced_sharded):
    for workload, (record, aig) in ((TINY, traced_inproc),
                                    (TINY_SHARDED, traced_sharded)):
        assert record["area_after"] < record["area_before"]
        proof = check_equivalence(_input_file_aig(workload, SEED), aig)
        assert proof.equivalent and proof.method == "sat"


def test_seed_draws_an_isomorphic_but_different_file():
    a, b = TINY.build(1), TINY.build(2)
    assert (a.num_ands, a.max_level(), a.num_pis, a.num_pos) == \
        (b.num_ands, b.max_level(), b.num_pis, b.num_pos)
    def fanins(g):
        return [g.fanins(v) for v in g.topo_ands()]

    assert fanins(a) != fanins(b)
    assert fanins(a) == fanins(TINY.build(1))


def test_agree_flags_only_what_is_outside_the_bound(tmp_path, capsys):
    def result(nodes_per_s, pairs):
        samples = [nodes_per_s * f for f in (0.99, 1.0, 1.01)]
        return {"workloads": {"w": {
            "end_to_end": {"nodes_per_s": {
                "value": nodes_per_s, "samples": samples}},
            "per_layer": {"cuts.merge_pairs": pairs},
        }}}

    def verdicts(b):
        (tmp_path / "a.json").write_text(json.dumps(result(1000.0, 7)))
        (tmp_path / "b.json").write_text(json.dumps(b))
        code = run.agree(tmp_path / "a.json", tmp_path / "b.json")
        return code, [line.split()[0]
                      for line in capsys.readouterr().out.splitlines()]

    bound = CATALOGUE["nodes_per_s"].bound
    assert verdicts(result(1000.0 * (1 - bound / 2), 7)) == (0, ["ok"])
    assert verdicts(result(1000.0 * (1 - 2 * bound), 7)) == (1, ["worse"])
    assert verdicts(result(1000.0, 8)) == (1, ["ok", "differs"])


def test_one_real_child_speaks_the_protocol():
    record = run.spawn_child("deep9k_inproc", SEED, jobs=2)
    assert record["failures"] == []
    assert record["nodes_per_s"] > 0 and record["setup_s"] > 0
    crashed = run.spawn_child("no_such_workload", SEED, jobs=2)
    assert crashed["failures"] and "nodes_per_s" not in crashed
    assert not list(Path(child.WORK_DIR).glob("*.aig"))
