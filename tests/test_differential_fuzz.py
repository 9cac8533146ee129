"""Differential fuzzing of the level pipeline and the shard pool.

Each seed generates a random strashed AIG and runs the full DACPara
rewrite on the simulated scheduler.  The oracle is layered:

* one worker — the serial timing reference — must repeat byte for byte
  (a single worker admits exactly one interleaving);
* every run's output (5 workers and 1) must pass the structural check
  and be SAT-equivalent to the *input*
  (:func:`repro.sat.check_equivalence_auto`; the fuzz circuits keep
  PI counts in exhaustive-simulation range, the cheaper of its two
  exact methods).

A second axis pins the **columnar batch engines** against the scalar
references in ``tests/reference.py``: full runs (at 5 workers and at 1)
must be byte-identical to ``reference_rewrite`` with the per-root eval
operator substituted (and, independently, with the per-pair cut merge
and per-root enum operator substituted); in isolation, the eval
*stage* must store the exact same candidates as the reference
executor's, and the enum *stage*, run level by level, must install the
exact same cut sets (cut sets are a pure function of the graph).

A third axis pins **shard-parallel mode**, the one place the process
pool runs: repeated sharded runs at a fixed seed/shard count must be
byte-identical (and the process shard fan-out byte-identical to the
sequential sharded run), while sharded
vs unsharded output — which legitimately differs structurally, the
frozen boundary changes which rewrites commit — is held to the
semantic bar: matching simulation signatures and exact SAT
equivalence against both the input and the unsharded result.

A fourth axis pins **lazy level maintenance** (DESIGN §4d) on the
shape it exists for: a deep add/sub/mux chain (112 levels, ~15 % of
the nodes replaced) where every committed replacement leaves pending
levels above the wavefront.  The reference reads levels only through
``aig.level()``; the columnar eval reads the raw column under the
bound-and-derive rule — under both ``preserve_level`` settings the
two must agree byte for byte.

A fifth axis pins the **closure waves** of the enum stage (DESIGN
§4c) where the per-level axes above barely reach them: a cold-cache
``run(aig, restrict=top third)`` makes the first worklist's closure the
whole lower TFI, one wave per level — result, per-stage stats and the
cut cache equal the reference's.

A sixth axis pins the **baseline engines' selector**: ABC
(``SerialRewriter``), ICCAD'18 (``LockFusedRewriter``) and both GPU
models (``StaticRewriter``) pick every rewrite through the one-root
columnar kernel; under :func:`reference_selector_patches` they pick it
through the per-cut loop instead.  Output bytes, the result record and
every observer series the reference emits must agree.

The smoke tier (always on, fixed seeds — CI runs it per-push) covers
``SMOKE_SEEDS`` plus pool-sized circuits whose production sharded
configuration genuinely ships shards to the pool.  The remaining ~200-seed sweep is marked
``slow`` and excluded by the default ``-m "not slow"`` addopts; run it
with ``pytest tests/test_differential_fuzz.py -m slow``.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import warnings

import pytest

from repro.aig import write_aig
from repro.aig.check import check
from repro.bench import mtm_like
from repro.config import (
    abc_rewrite_config,
    dacpara_config,
    dacpara_p1_config,
    gpu_config,
    iccad18_config,
)
from repro.core import DACParaRewriter
from repro.core.operators import StageContext
from repro.cuts import CutManager
from repro.galois.simsched import SimulatedExecutor
from repro.library import get_library
from repro.obs.export import chrome_trace_json
from repro.obs.observer import TracingObserver
from repro.rewrite import LockFusedRewriter, SerialRewriter, StaticRewriter
from repro.sat import check_equivalence_auto

from conftest import (
    capture_cut_managers,
    deep_chain_circuit,
    random_aig,
    stage_tuple,
)
from reference import (
    ReferenceExecutor,
    ScalarCutManager,
    reference_patches,
    reference_rewrite,
    reference_selector_patches,
)
from test_procpool import aig_fingerprint, result_fingerprint

SMOKE_SEEDS = tuple(range(12))
SLOW_SEEDS = tuple(range(12, 200))


def fuzz_circuit(seed: int):
    """A random AIG whose shape (PI/node/PO counts) also varies by seed.

    PI counts stay within the exhaustive-simulation limit, so every
    equivalence verdict below is an exhaustive one.
    """
    rng = random.Random(seed ^ 0x5EED)
    return random_aig(
        num_pis=rng.randint(4, 8),
        num_nodes=rng.randint(30, 140),
        num_pos=rng.randint(2, 6),
        seed=seed,
    )


def _run(base, kind: str, workers: int = 5, **overrides):
    aig = copy.deepcopy(base)
    config = dataclasses.replace(dacpara_config(workers=workers), **overrides)
    engine = DACParaRewriter(config=config.with_executor(kind, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a silent pool fallback is a bug
        result = engine.run(aig)
    return result, aig


def check_differential(base) -> None:
    _, a_sim = _run(base, "simulated")

    r_sim1, a_sim1 = _run(base, "simulated", workers=1)
    r_ser, a_ser = _run(base, "simulated", workers=1)
    assert result_fingerprint(r_ser) == result_fingerprint(r_sim1)
    assert aig_fingerprint(a_ser) == aig_fingerprint(a_sim1)

    for out in (a_sim, a_sim1, a_ser):
        check(out)
        assert check_equivalence_auto(base, out).equivalent


def _eval_stage_prep(base, executor):
    """Run the eval stage alone on ``executor(4)``; returns the
    per-root prep_info stores (interleaving-independent: the stage is
    lock-free and each activity writes only its own root's slot)."""
    aig = copy.deepcopy(base)
    config = dacpara_config(workers=4)
    cutman = CutManager(aig, max_cuts=config.max_cuts)
    live = aig.topo_ands()
    for root in live:
        cutman.fresh_cuts(root)
    ctx = StageContext(
        aig=aig, cutman=cutman, library=get_library(), config=config
    )
    executor(4).run_eval("eval", live, ctx)
    return {v: ctx.prep_info.get(v) for v in live}


def _enum_stage_cuts(base, manager, executor):
    """Run the enum stage alone on ``executor(4)``, level by level (so
    the batched path genuinely merges whole worklists); returns every
    node's installed cut set.  Cut sets are a pure function of the
    graph, so they are interleaving-independent."""
    aig = copy.deepcopy(base)
    config = dacpara_config(workers=4)
    cutman = manager(aig, max_cuts=config.max_cuts)
    live = aig.topo_ands()
    ctx = StageContext(
        aig=aig, cutman=cutman, library=get_library(), config=config
    )
    ex = executor(4)
    levels = {}
    for v in live:
        levels.setdefault(aig.level(v), []).append(v)
    for lv in sorted(levels):
        ex.run_enum("enum", levels[lv], ctx)
    return {v: cutman.fresh_cuts(v) for v in live}


def _check_against_reference(base, stages, **overrides):
    """The simulated executor's full run at 5 workers and at 1 against
    the reference run with ``stages`` substituted; returns the last
    reference run."""
    config = dataclasses.replace(dacpara_config(), **overrides)
    for workers in (5, 1):
        a_ref = copy.deepcopy(base)
        r_ref = reference_rewrite(a_ref, config, workers, stages)
        r_col, a_col = _run(base, "simulated", workers=workers, **overrides)
        assert result_fingerprint(r_col) == result_fingerprint(r_ref)
        assert aig_fingerprint(a_col) == aig_fingerprint(a_ref)
    return r_ref, a_ref


def check_enum_differential(base) -> None:
    """Columnar cut enumeration pinned byte-identical to the scalar
    merge reference, in full runs and as an isolated stage."""
    _check_against_reference(base, ("enum",))
    assert _enum_stage_cuts(base, CutManager, SimulatedExecutor) == \
        _enum_stage_cuts(base, ScalarCutManager, ReferenceExecutor)


def check_columnar_differential(base) -> None:
    """Batch-kernel eval pinned byte-identical to the scalar reference,
    in full runs and as an isolated stage."""
    _check_against_reference(base, ("eval",))
    assert _eval_stage_prep(base, SimulatedExecutor) == \
        _eval_stage_prep(base, ReferenceExecutor)


BASELINE_ENGINES = {
    "abc": SerialRewriter,
    "iccad18": LockFusedRewriter,
    "dac22": lambda config, observer: StaticRewriter(
        config, variant="dac22", observer=observer),
    "tcad23": lambda config, observer: StaticRewriter(
        config, variant="tcad23", observer=observer),
}

BASELINE_CONFIGS = {
    "abc": abc_rewrite_config,
    "iccad18": lambda: iccad18_config(workers=5),
    "p1": lambda: dacpara_p1_config(workers=5),
    "gpu": lambda: gpu_config(workers=5),  # all222, 8 cuts, 5 structures
    "zero_gain": lambda: dataclasses.replace(
        iccad18_config(workers=5), zero_gain=True),
    "preserve_level": lambda: dataclasses.replace(
        iccad18_config(workers=5), preserve_level=True),
}


#: The series only the columnar kernel emits.
KERNEL_SERIES = {"eval_batch_size", "eval_kernel_seconds",
                 "eval_vectorized_candidates_total", "eval_deref_walks_total"}


def _run_baseline(base, engine: str, config: str, path):
    """One baseline run on a copy of ``base``: output ``.aig`` bytes
    (written to ``path``), result record, the observer's metrics
    snapshot and its trace."""
    aig = copy.deepcopy(base)
    obs = TracingObserver()
    result = BASELINE_ENGINES[engine](BASELINE_CONFIGS[config](),
                                      observer=obs).run(aig)
    write_aig(aig, path)
    return path.read_bytes(), result.to_dict(), obs.metrics.snapshot(), \
        chrome_trace_json(obs.tracer)


def check_baseline_selector(base, engine: str, config: str, path) -> None:
    """The shipped engine (kernel selector) against the same engine
    under the per-cut reference selector.  The kernel also emits its
    own series (:data:`KERNEL_SERIES`);
    every series the reference emits is compared, and no other is
    added."""
    with reference_selector_patches():
        want = _run_baseline(base, engine, config, path)
    got = _run_baseline(base, engine, config, path)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[3] == want[3]
    for kind, series in want[2].items():
        for key, value in series.items():
            assert got[2][kind][key] == value, key
        added = {key.split("{")[0] for key in got[2][kind]} - \
            {key.split("{")[0] for key in series}
        assert added <= KERNEL_SERIES, added


def _run_sharded(base, kind: str, shards: int = 4, workers: int = 5):
    """One full rewrite with shard-parallel mode forced on (the floor
    dropped to 1 so even fuzz-sized circuits decompose when they can)."""
    aig = copy.deepcopy(base)
    config = dataclasses.replace(
        dacpara_config(workers=workers), shards=shards, shard_min_nodes=1
    )
    engine = DACParaRewriter(config=config.with_executor(kind, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a silent pool fallback is a bug
        result = engine.run(aig)
    return result, aig


def check_sharded_differential(base) -> None:
    """The sharded axis: deterministic, executor-independent, and
    functionally equivalent to both the input and the unsharded run.

    Sharded output is *not* byte-identical to unsharded output (the
    frozen boundary deliberately changes which rewrites commit), so
    the bar between the two pipelines is semantic — simulation
    signatures plus an exact SAT check — while repeated sharded runs
    and the process fan-out are held to byte-identity.
    """
    from repro.aig.simulate import random_simulation

    r_a, a_a = _run_sharded(base, "simulated")
    # Determinism: same seed + shard count => byte-identical rerun.
    r_b, a_b = _run_sharded(base, "simulated")
    assert result_fingerprint(r_a) == result_fingerprint(r_b)
    assert aig_fingerprint(a_a) == aig_fingerprint(a_b)
    # The process shard fan-out replays the same per-shard pipeline,
    # so it must reproduce the sequential sharded run exactly.
    r_p, a_p = _run_sharded(base, "process")
    assert result_fingerprint(r_p) == result_fingerprint(r_a)
    assert aig_fingerprint(a_p) == aig_fingerprint(a_a)
    assert r_p.shards == r_a.shards

    _, a_unsharded = _run(base, "simulated")
    base_sig = random_simulation(base, width=256, seed=9)
    for out in (a_a, a_p):
        check(out)
        assert random_simulation(out, width=256, seed=9) == base_sig
        assert check_equivalence_auto(base, out).equivalent
        assert check_equivalence_auto(a_unsharded, out).equivalent


def _run_sharded_qor(base, kind: str, shards: int = 4, passes: int = 2,
                     workers: int = 5):
    """One full rewrite in the production sharded configuration: seam
    rotation at ``passes`` passes plus the boundary cleanup sweep."""
    aig = copy.deepcopy(base)
    config = dataclasses.replace(
        dacpara_config(workers=workers), shards=shards, shard_min_nodes=1,
        shard_passes=passes, boundary_cleanup=True,
    )
    engine = DACParaRewriter(config=config.with_executor(kind, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a silent pool fallback is a bug
        result = engine.run(aig)
    return result, aig


def check_sharded_qor_differential(base) -> None:
    """The sharded-QoR axis: the rotation + cleanup configuration is
    deterministic and byte-identical across executors per
    ``(seed, shards, passes)``, functionally equivalent to the input,
    and never worse than the plain frozen-boundary sharded run (both
    extra passes and the cleanup commit only positive-gain
    replacements, so area is monotone in the recovery machinery).
    """
    r_a, a_a = _run_sharded_qor(base, "simulated")
    r_b, a_b = _run_sharded_qor(base, "simulated")
    assert result_fingerprint(r_a) == result_fingerprint(r_b)
    assert aig_fingerprint(a_a) == aig_fingerprint(a_b)
    r_p, a_p = _run_sharded_qor(base, "process")
    assert result_fingerprint(r_p) == result_fingerprint(r_a)
    assert aig_fingerprint(a_p) == aig_fingerprint(a_a)
    assert r_p.shard_passes == r_a.shard_passes

    r_plain, _ = _run_sharded(base, "simulated")
    assert r_a.area_after <= r_plain.area_after
    for out in (a_a, a_p):
        check(out)
        assert check_equivalence_auto(base, out).equivalent


def _qor_parity_gap(seeds) -> float:
    """Aggregate area gap (%) of the sharded-QoR configuration vs the
    unsharded pipeline over a seed set.  Aggregated, not per-seed: the
    fuzz circuits are tiny, so a single frozen node can be a large
    *relative* excess on one seed while the corpus-level parity is
    what the recovery machinery actually promises."""
    total_unsharded = 0
    total_sharded = 0
    for seed in seeds:
        base = fuzz_circuit(seed)
        r_u, _ = _run(base, "simulated")
        r_s, _ = _run_sharded_qor(base, "simulated")
        total_unsharded += r_u.area_after
        total_sharded += r_s.area_after
    return 100.0 * (total_sharded - total_unsharded) / total_unsharded


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_fuzz_smoke(seed):
    check_differential(fuzz_circuit(seed))


@pytest.mark.parametrize("seed", SMOKE_SEEDS[:6])
def test_sharded_vs_unsharded_smoke(seed):
    check_sharded_differential(fuzz_circuit(seed))


@pytest.mark.parametrize("seed", SMOKE_SEEDS[:6])
def test_sharded_qor_smoke(seed):
    check_sharded_qor_differential(fuzz_circuit(seed))


def test_sharded_qor_parity_smoke():
    """CI tier of the QoR parity bound: rotation + cleanup keep the
    aggregate sharded area within a pinned bound of unsharded over the
    smoke corpus (measured ~1.4%; the plain frozen-boundary pipeline
    sat near 11% on the full corpus)."""
    assert _qor_parity_gap(SMOKE_SEEDS) <= 8.0


def test_sharded_pool_sized():
    # Large enough to decompose into real shards and ship them to pool
    # workers; the run must actually engage sharding, not fall back.
    base = mtm_like(num_pis=12, num_nodes=250, seed=404)
    r_seq, a_seq = _run_sharded(base, "simulated")
    assert r_seq.shards >= 2  # sharding genuinely engaged

    aig = copy.deepcopy(base)
    obs = TracingObserver()
    config = dataclasses.replace(
        dacpara_config(workers=5), shards=4, shard_min_nodes=1,
        executor="process", jobs=2,
    )
    engine = DACParaRewriter(config=config, observer=obs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_proc = engine.run(aig)
    assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
    assert aig_fingerprint(aig) == aig_fingerprint(a_seq)
    counters = obs.metrics.snapshot()["counters"]
    shipped = sum(
        value
        for key, value in counters.items()
        if key.startswith("snapshot_bytes_shipped_total{")
        and "stage=shard" in key
    )
    assert shipped > 0  # the shard fan-out genuinely used the pool
    assert counters.get("shard_runs_total", 0) == r_proc.shards


@pytest.mark.parametrize("seed", SMOKE_SEEDS[:6])
def test_columnar_vs_scalar_smoke(seed):
    check_columnar_differential(fuzz_circuit(seed))


@pytest.mark.parametrize("seed", (303,))
def test_columnar_vs_scalar_pool_sized(seed):
    # Wide worklists: the batch kernels score hundreds of roots a call.
    check_columnar_differential(mtm_like(num_pis=12, num_nodes=250, seed=seed))


@pytest.mark.parametrize("config", sorted(BASELINE_CONFIGS))
@pytest.mark.parametrize("engine", sorted(BASELINE_ENGINES))
def test_baseline_selector_vs_reference_smoke(engine, config, tmp_path):
    bases = [fuzz_circuit(seed) for seed in SMOKE_SEEDS[:6]]
    bases.append(mtm_like(num_pis=12, num_nodes=250, seed=303))
    for base in bases:
        check_baseline_selector(base, engine, config, tmp_path / "out.aig")


@pytest.mark.parametrize("seed", SMOKE_SEEDS[:6])
def test_columnar_enum_vs_scalar_smoke(seed):
    check_enum_differential(fuzz_circuit(seed))


@pytest.mark.parametrize("seed", (303,))
def test_columnar_enum_vs_scalar_pool_sized(seed):
    # Wide worklists: each merge wave is hundreds of tasks.
    check_enum_differential(mtm_like(num_pis=12, num_nodes=250, seed=seed))


@pytest.mark.parametrize("preserve_level", (False, True))
def test_deep_chain_vs_reference(preserve_level):
    base = deep_chain_circuit()
    assert base.max_level() >= 100
    r_ref, a_ref = _check_against_reference(
        base, ("enum", "eval"), preserve_level=preserve_level)
    assert r_ref.replacements >= 0.05 * base.num_ands
    if preserve_level:
        assert r_ref.delay_after <= r_ref.delay_before
    check(a_ref)
    assert check_equivalence_auto(base, a_ref).equivalent


def _cut_cache(cutman):
    aig = cutman.aig
    return {v: cutman._materialize(v)
            for v in range(aig.size)
            if not aig.is_dead(v) and cutman.has_fresh_entry(v)}


@pytest.mark.parametrize("workers,kinds", (
    (5, ("simulated",)), (1, ("simulated",))))
def test_closure_cold_cache_restricted_vs_reference(workers, kinds,
                                                    monkeypatch):
    base = deep_chain_circuit(stages=6)
    floor = 2 * base.max_level() // 3
    top = {v for v in base.topo_ands() if base.level(v) > floor}
    managers, wave_counts = capture_cut_managers(monkeypatch), []
    real_plan = CutManager.plan_closures

    def plan(self, roots):
        out = real_plan(self, roots)
        wave_counts.append(len(out.waves))
        return out

    monkeypatch.setattr(CutManager, "plan_closures", plan)

    def run(kind):
        aig = copy.deepcopy(base)
        del managers[:], wave_counts[:]
        engine = DACParaRewriter(
            config=dacpara_config(workers=workers).with_executor(kind, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = engine.run(aig, restrict=top)
        check(aig)
        assert check_equivalence_auto(base, aig).equivalent
        # The run's own manager is the first one it creates.
        return (result_fingerprint(result), aig_fingerprint(aig),
                [stage_tuple(s) for s in engine.last_stats.stages],
                _cut_cache(managers[0]))

    with reference_patches(("enum", "eval")):
        want = run("simulated")
    assert want[0][4] > 0  # replacements: the restricted run rewrote
    for kind in kinds:
        assert run(kind) == want, kind
        # The first worklist sits on a cold cache: its closure is the
        # whole lower TFI, one wave per level.
        assert wave_counts[0] == floor + 1


@pytest.mark.parametrize("seed", (101, 202))
def test_fuzz_pool_sized(seed):
    # Large enough that the production sharded configuration (seam
    # rotation + cleanup) ships every pass's shards to the pool instead
    # of falling back to in-parent execution.
    base = mtm_like(num_pis=12, num_nodes=250, seed=seed)
    r_seq, a_seq = _run_sharded_qor(base, "simulated")
    assert r_seq.shards >= 2

    aig = copy.deepcopy(base)
    obs = TracingObserver()
    config = dataclasses.replace(
        dacpara_config(workers=5), shards=4, shard_min_nodes=1,
        shard_passes=2, boundary_cleanup=True,
    )
    engine = DACParaRewriter(config=config.with_executor("process", 2),
                             observer=obs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_proc = engine.run(aig)
    assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
    assert aig_fingerprint(aig) == aig_fingerprint(a_seq)
    assert check_equivalence_auto(base, aig).equivalent
    shipped = sum(
        value
        for key, value in obs.metrics.snapshot()["counters"].items()
        if key.startswith("snapshot_bytes_shipped_total")
    )
    assert shipped > 0  # the pool genuinely ran; not an in-parent pass


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_fuzz_full_sweep(seed):
    check_differential(fuzz_circuit(seed))


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_columnar_vs_scalar_full_sweep(seed):
    check_columnar_differential(fuzz_circuit(seed))


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_baseline_selector_vs_reference_full_sweep(seed, tmp_path):
    base = fuzz_circuit(seed)
    for engine in BASELINE_ENGINES:
        for config in BASELINE_CONFIGS:
            check_baseline_selector(base, engine, config, tmp_path / "out.aig")


@pytest.mark.slow
@pytest.mark.parametrize("engine", sorted(BASELINE_ENGINES))
def test_baseline_selector_vs_reference_deep_chain(engine, tmp_path):
    for config in ("abc", "preserve_level"):
        check_baseline_selector(deep_chain_circuit(), engine, config,
                                tmp_path / "out.aig")


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_columnar_enum_vs_scalar_full_sweep(seed):
    check_enum_differential(fuzz_circuit(seed))


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_sharded_vs_unsharded_full_sweep(seed):
    check_sharded_differential(fuzz_circuit(seed))


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_sharded_qor_full_sweep(seed):
    check_sharded_qor_differential(fuzz_circuit(seed))


@pytest.mark.slow
def test_sharded_qor_parity_full():
    """188-seed tier of the QoR parity bound (measured ~3.8% over the
    full corpus vs ~11% for the plain frozen-boundary pipeline)."""
    assert _qor_parity_gap(SMOKE_SEEDS + SLOW_SEEDS) <= 6.0
