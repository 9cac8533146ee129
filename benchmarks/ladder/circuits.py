"""The ladder's workload table and its circuits.

Each workload is a *fixed* base circuit plus a rewriter configuration.
``--seed S`` is the only input to circuit generation: it draws an
isomorphic copy of the base circuit (:func:`relabel`), so every seed
hands the program a different file describing the same amount and
shape of work.  Drawing a *different* random circuit per seed was
measured first and rejected: at these sizes ``mtm_like(seed=7+S)``
moves nodes/s by ~10 % and ``area_reduction_pct`` by ~20 % between
seeds, which would bury any regression the bounds are meant to catch.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.aig import Aig
from repro.aig.build import (
    constant_word,
    pi_word,
    ripple_adder,
    ripple_subtractor,
    word_mux,
)
from repro.bench.generators import mtm_like
from repro.config import RewriteConfig, dacpara_config


def default_jobs() -> int:
    """``min(4, nproc)`` — the pool size every process workload uses."""
    return min(4, len(os.sched_getaffinity(0)))


def deep_chain(stages: int, width: int, seed: int) -> Aig:
    """The ``hyp_like`` add/sub/shift/mux round with the per-stage
    shift drawn from ``random.Random(seed)``: ``stages`` dependent
    rounds, ~14 levels and ~360 ANDs each at ``width=16`` — hundreds
    of tiny per-level worklists, and a tenth of the nodes replaceable.
    """
    rng = random.Random(seed)
    aig = Aig()
    aig.name = f"deep_s{stages}w{width}r{seed}"
    x = pi_word(aig, width)
    y = pi_word(aig, width)
    for _ in range(stages):
        shift = rng.randrange(1, width)
        xs = constant_word(0, shift) + x[: width - shift]
        ys = constant_word(0, shift) + y[: width - shift]
        sign = y[-1]
        x_add, _ = ripple_adder(aig, x, ys)
        x_sub, _ = ripple_subtractor(aig, x, ys)
        y_add, _ = ripple_adder(aig, y, xs)
        y_sub, _ = ripple_subtractor(aig, y, xs)
        x = word_mux(aig, sign, x_add, x_sub)
        y = word_mux(aig, sign, y_sub, y_add)
    for bit in x + y:
        aig.add_po(bit)
    return aig


def relabel(base: Aig, seed: int) -> Aig:
    """A seeded isomorphic copy of ``base``.

    PIs are permuted and randomly complemented and ANDs are created in
    a random order within each level, so var ids, strash operand order,
    cut leaf order and every id-keyed tie-break differ.  Node count,
    depth and the structure the rewriter sees are unchanged.  POs keep
    their order: the sharded configuration plans its regions from it,
    so a permuted order would be a different partition, not the same
    work (measured: it triples the seed-to-seed spread of the sharded
    ``area_reduction_pct``).
    """
    rng = random.Random(seed)
    out = Aig()
    out.name = f"{base.name}_iso{seed}"
    new_pis = [out.add_pi() for _ in range(base.num_pis)]
    rng.shuffle(new_pis)
    lit_of = {0: 0}
    for old, new in zip(base.pis, new_pis):
        lit_of[old] = new ^ rng.getrandbits(1)
    by_level: dict = {}
    for var in base.ands():
        by_level.setdefault(base.level(var), []).append(var)
    for level in sorted(by_level):
        nodes = by_level[level]
        rng.shuffle(nodes)
        for var in nodes:
            f0, f1 = base.fanins(var)
            lit_of[var] = out.and_(
                lit_of[f0 >> 1] ^ (f0 & 1), lit_of[f1 >> 1] ^ (f1 & 1)
            )
    for lit in base.pos:
        out.add_po(lit_of[lit >> 1] ^ (lit & 1))
    return out


def inproc_config(jobs: int) -> RewriteConfig:
    """The fastest single-process configuration: the default preset on
    the simulated executor.  Every parallel ratio is quoted against it."""
    return dacpara_config()


def sharded_config(jobs: int) -> RewriteConfig:
    """The production sharded configuration."""
    return dataclasses.replace(
        dacpara_config(), executor="process", jobs=jobs, shards=4,
        shard_passes=2, boundary_cleanup=True, shard_min_nodes=256,
    )


def process_config(jobs: int) -> RewriteConfig:
    """Per-level enum+eval fan-out through the process pool."""
    return dataclasses.replace(
        dacpara_config(), executor="process", jobs=jobs, shards=1,
    )


@dataclass(frozen=True)
class Workload:
    """One row of the ladder.  ``name`` is permanent."""

    name: str
    why: str  # one line; copied into BENCHMARK.json
    base: Callable[[], Aig]
    config: Callable[[int], RewriteConfig]

    def build(self, seed: int) -> Aig:
        return relabel(self.base(), seed)


def _wide() -> Aig:
    return mtm_like(24, 12000, seed=7)


def _deep() -> Aig:
    return deep_chain(stages=24, width=16, seed=0)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "wide17k_inproc",
        "Wide/shallow (16.7k ANDs, 32 levels, 1.5% replaced), in-process: "
        "cuts merge kernel, eval kernel and harvest/install/replay carry "
        "the run; the baseline of every parallel ratio.",
        _wide, inproc_config,
    ),
    Workload(
        "deep9k_inproc",
        "Deep (8.6k ANDs, 346 levels, 10% replaced), in-process: tiny "
        "worklists, scalar fresh_cuts after invalidation and "
        "apply_candidate carry the run; batch kernels bypassed.",
        _deep, inproc_config,
    ),
    Workload(
        "wide17k_sharded",
        "Same circuit as wide17k_inproc under the production sharded "
        "config: partition planning, shard fan-out, splice and the "
        "sequential cleanup run; shows the ratio and the area gap.",
        _wide, sharded_config,
    ),
    Workload(
        "wide17k_process",
        "Same circuit, per-level process fan-out (shards=1): the only "
        "workload where snapshot capture/delta/shm and procpool "
        "chunking carry the run.",
        _wide, process_config,
    ),
)


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}")
