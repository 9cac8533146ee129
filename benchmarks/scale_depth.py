"""Off-contract depth ladder: is nodes/s flat in circuit *depth*?

    python3 benchmarks/scale_depth.py [--stages 24 48 96 192] [--src DIR] [--p1]
                                      [--repeat N]

Runs the ladder's ``deep_chain`` (width 16, ~360 ANDs and ~14 levels
per stage) at growing stage counts through
``DACParaRewriter(dacpara_config())`` (``--p1``: the paper's two-pass
``dacpara_p1_config()``), one fresh process per rung, and prints one
row per rung — throughput, level writes, the cut-merge kernel's
invocations per enum stage run, and the fixed per-call cost of the
steps every level runs: for each of :data:`FIT_TARGETS` (plan, merge,
eval, replay), the intercept of a least-squares line of per-call wall
time on call size, in µs/call.  Each target is wrapped from outside,
the way the ladder's span tracer wraps its targets; a target that does
not resolve in the measured tree prints ``-``.  ``--repeat N`` runs
each rung N times and prints the median of every timed column.  Every
output is ``check()``-ed and its 1024-bit simulation signature
compared with the input's; a rung that fails either exits non-zero.  Not part of ``BENCHMARK.json`` (the
192-stage rung alone outlasts its run budget); ``--src`` points the
children at another checkout's ``src/`` so a parent commit can be
measured with the same script (EXPERIMENTS.md, "Depth ladder").
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from rung_child import run_rung_child

ROOT = Path(__file__).resolve().parents[1]
SIGNATURE_BITS = 1024


# (column, module, qualname, call size read from the call's arguments
# once it returned, the call's key).  Calls in a row with the same key
# are one sample: every ``merge_tasks_columnar`` call over one plan —
# one per plan, or one per dependency wave before the plan-level merge
# — is the level's merge, sized by the plan's merge pairs.
FIT_TARGETS = (
    ("plan", "repro.cuts.manager", "CutManager.plan_closures",
     lambda args: len(args[1]), lambda args: None),
    ("merge", "repro.cuts.manager", "CutManager.merge_tasks_columnar",
     lambda args: int(args[1].pairs.sum()), lambda args: args[1]),
    ("eval", "repro.rewrite.columnar", "eval_tasks_columnar",
     lambda args: len(args[1].tt), lambda args: None),
    ("replay", "repro.galois.simsched", "SimulatedExecutor.run",
     lambda args: len(args[2]), lambda args: None),
)


def wrap_fit_targets() -> dict:
    """Wrap every resolvable :data:`FIT_TARGETS` entry (the defining
    attribute and each loaded ``repro`` module that re-bound it); returns
    ``column -> [(size, seconds), ...]``, filled as the calls happen."""
    import importlib

    samples = {}
    for column, module, qualname, size, key in FIT_TARGETS:
        owner = importlib.import_module(module)
        *path, leaf = qualname.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
        except (AttributeError, KeyError):
            continue
        calls = samples[column] = []
        last = [None]  # the previous call's key

        def timed(*args, _fn=raw, _size=size, _key=key, _calls=calls,
                  _last=last, **kwargs):
            start = time.perf_counter()
            out = _fn(*args, **kwargs)
            wall = time.perf_counter() - start
            key = _key(args)
            if key is not None and key is _last[0]:
                _calls[-1] = (_size(args), _calls[-1][1] + wall)
            else:
                _calls.append((_size(args), wall))
            _last[0] = key
            return out

        setattr(owner, leaf, timed)
        if path:
            continue
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and mod is not owner:
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, attr, timed)
    return samples


def intercept_us(calls) -> dict:
    """``{"calls", "us"}``: the call count and the least-squares
    intercept of wall time on call size, in µs (the fixed cost of a
    call of size 0)."""
    import numpy as np

    if len(calls) < 3:
        return {"calls": len(calls), "us": None}
    size, wall = np.array(calls, dtype=float).T
    design = np.stack([np.ones_like(size), size], axis=1)
    (fixed, _), *_ = np.linalg.lstsq(design, wall, rcond=None)
    return {"calls": len(calls), "us": fixed * 1e6}


def run_rung(stages: int, p1: bool) -> dict:
    """One rung, in this process: build, rewrite, verify."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "ladder"))
    from circuits import deep_chain

    from repro import config
    from repro.aig import check, random_simulation
    from repro.core import dacpara
    from repro.core.dacpara import DACParaRewriter

    managers = []
    make_manager = dacpara.CutManager

    def capture(*args, **kwargs):
        managers.append(make_manager(*args, **kwargs))
        return managers[-1]

    dacpara.CutManager = capture
    samples = wrap_fit_targets()
    aig = deep_chain(stages=stages, width=16, seed=0)
    signature = random_simulation(aig, SIGNATURE_BITS, 0)
    rewriter = DACParaRewriter(
        config.dacpara_p1_config() if p1 else config.dacpara_config())
    start = time.perf_counter()
    result = rewriter.run(aig)
    wall = time.perf_counter() - start
    check(aig)
    if random_simulation(aig, SIGNATURE_BITS, 0) != signature:
        raise SystemExit(f"stages={stages}: signature mismatch")
    return {
        "stages": stages,
        "ands": result.area_before,
        "levels": result.delay_before,
        "nodes_per_s": result.area_before / wall,
        # Absent before lazy level maintenance (PR 16).
        "level_updates": getattr(aig, "level_updates", None),
        # Absent before closure waves (PR 17).
        "kernel_calls": getattr(managers[0], "kernel_calls", None),
        "enum_stages": sum(
            stage.name == "enum" for stage in rewriter.last_stats.stages),
        "area_after": result.area_after,
        "depth_after": result.delay_after,
        "fixed_us": {column: intercept_us(calls)
                     for column, calls in samples.items()},
    }


def _fixed_cell(fit) -> str:
    if fit is None or fit["us"] is None:
        return f" {'-':>10}"
    return f" {fit['us']:>10.0f}"


def _median_row(rows: list) -> dict:
    """The first run's row with the median of every timed column."""
    from statistics import median

    row = dict(rows[0])
    row["nodes_per_s"] = median(r["nodes_per_s"] for r in rows)
    row["fixed_us"] = {}
    for column in rows[0]["fixed_us"]:
        fits = [r["fixed_us"][column] for r in rows]
        row["fixed_us"][column] = {
            "calls": fits[0]["calls"],
            "us": None if fits[0]["us"] is None
            else median(fit["us"] for fit in fits)}
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stages", type=int, nargs="+",
                        default=[24, 48, 96, 192])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src/ directory the children import repro from")
    parser.add_argument("--p1", action="store_true",
                        help="run dacpara_p1_config() (two passes)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="fresh processes per rung (median reported)")
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rung is not None:
        print(json.dumps(run_rung(args.rung, args.p1)))
        return 0

    print(f"{'stages':>6} {'ANDs':>7} {'levels':>6} {'nodes/s':>8} "
          f"{'level_updates':>13} {'upd/AND':>7} {'kernel_calls':>12} "
          f"{'per_enum':>8} {'area':>7} {'depth':>6}"
          + "".join(f" {column + ' µs':>10}" for column, *_ in FIT_TARGETS))
    for stages in args.stages:
        row = _median_row([
            run_rung_child(__file__, [str(stages)] + ["--p1"] * args.p1,
                           args.src)
            for _ in range(args.repeat)])
        updates, calls = row["level_updates"], row["kernel_calls"]
        shown = ("-", "-") if updates is None else (
            updates, f"{updates / row['ands']:.2f}")
        shown += ("-", "-") if calls is None else (
            calls, f"{calls / row['enum_stages']:.2f}")
        print(f"{row['stages']:>6} {row['ands']:>7} {row['levels']:>6} "
              f"{row['nodes_per_s']:>8.0f} {shown[0]:>13} {shown[1]:>7} "
              f"{shown[2]:>12} {shown[3]:>8} "
              f"{row['area_after']:>7} {row['depth_after']:>6}"
              + "".join(_fixed_cell(row["fixed_us"].get(column))
                        for column, *_ in FIT_TARGETS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
