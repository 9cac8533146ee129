"""Off-contract depth ladder: is nodes/s flat in circuit *depth*?

    python3 benchmarks/scale_depth.py [--stages 24 48 96 192] [--src DIR] [--p1]

Runs the ladder's ``deep_chain`` (width 16, ~360 ANDs and ~14 levels
per stage) at growing stage counts through
``DACParaRewriter(dacpara_config())`` (``--p1``: the paper's two-pass
``dacpara_p1_config()``), one fresh process per rung, and prints one
row per rung — throughput, level writes, and the cut-merge kernel's
invocations per enum stage run.  Every output is ``check()``-ed and its
1024-bit simulation signature compared with the input's; a rung that
fails either exits non-zero.  Not part of ``BENCHMARK.json`` (the
192-stage rung alone outlasts its run budget); ``--src`` points the
children at another checkout's ``src/`` so a parent commit can be
measured with the same script (EXPERIMENTS.md, "Depth ladder").
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIGNATURE_BITS = 1024


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
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stages", type=int, nargs="+",
                        default=[24, 48, 96, 192])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src/ directory the children import repro from")
    parser.add_argument("--p1", action="store_true",
                        help="run dacpara_p1_config() (two passes)")
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rung is not None:
        print(json.dumps(run_rung(args.rung, args.p1)))
        return 0

    env = dict(os.environ, PYTHONPATH=str(args.src), PYTHONHASHSEED="0")
    print(f"{'stages':>6} {'ANDs':>7} {'levels':>6} {'nodes/s':>8} "
          f"{'level_updates':>13} {'upd/AND':>7} {'kernel_calls':>12} "
          f"{'per_enum':>8} {'area':>7} {'depth':>6}")
    for stages in args.stages:
        proc = subprocess.run(
            [sys.executable, __file__, "--rung", str(stages)]
            + ["--p1"] * args.p1,
            env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        updates, calls = row["level_updates"], row["kernel_calls"]
        shown = ("-", "-") if updates is None else (
            updates, f"{updates / row['ands']:.2f}")
        shown += ("-", "-") if calls is None else (
            calls, f"{calls / row['enum_stages']:.2f}")
        print(f"{row['stages']:>6} {row['ands']:>7} {row['levels']:>6} "
              f"{row['nodes_per_s']:>8.0f} {shown[0]:>13} {shown[1]:>7} "
              f"{shown[2]:>12} {shown[3]:>8} "
              f"{row['area_after']:>7} {row['depth_after']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
