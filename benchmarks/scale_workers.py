"""Off-contract worker ladder: is scheduler replay flat in ``workers``?

    python3 benchmarks/scale_workers.py [--workers 1 8 40 320 2560] [--src DIR]

Runs the ladder's wide circuit (``wide17k_inproc``'s base, seed 0)
through ``DACParaRewriter(dacpara_config(workers))`` on the simulated
executor, one fresh process per rung, and prints one row per rung —
wall, the seconds spent inside ``executor.run`` per stage name
(Σ ``StageStats.wall_seconds``: the replay of the enum and eval stages
and the replace stage itself), conflicts, simulated makespan and area.
The simulated worker count changes the schedule (conflicts, makespan),
not the work: identical rungs on two checkouts must print identical
counts, and the seconds say what one more modelled worker costs.  Every
output is ``check()``-ed and its 1024-bit simulation signature compared
with the input's; a rung that fails either exits non-zero.  Not part of
``BENCHMARK.json``; ``--src`` points the children at another checkout's
``src/`` so a parent commit can be measured with the same script
(EXPERIMENTS.md, "Worker ladder").
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
STAGES = ("enum", "eval", "replace")


def run_rung(workers: int) -> dict:
    """One rung, in this process: build, rewrite, verify."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "ladder"))
    from circuits import workload_named

    from repro import config
    from repro.aig import check, random_simulation
    from repro.core.dacpara import DACParaRewriter

    aig = workload_named("wide17k_inproc").build(0)
    signature = random_simulation(aig, SIGNATURE_BITS, 0)
    rewriter = DACParaRewriter(config.dacpara_config(workers))
    start = time.perf_counter()
    result = rewriter.run(aig)
    wall = time.perf_counter() - start
    check(aig)
    if random_simulation(aig, SIGNATURE_BITS, 0) != signature:
        raise SystemExit(f"workers={workers}: signature mismatch")
    stats = rewriter.last_stats
    row = {
        "workers": workers,
        "wall_s": wall,
        "conflicts": stats.total_conflicts,
        "makespan": stats.makespan,
        "area_after": result.area_after,
    }
    for name in STAGES:
        row[f"{name}_s"] = sum(
            stage.wall_seconds for stage in stats.stages if stage.name == name)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, nargs="+",
                        default=[1, 8, 40, 320, 2560])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src/ directory the children import repro from")
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rung is not None:
        print(json.dumps(run_rung(args.rung)))
        return 0

    print(f"{'workers':>7} {'wall_s':>7} "
          + " ".join(f"{name + '_s':>9}" for name in STAGES)
          + f" {'conflicts':>9} {'makespan':>9} {'area':>7}")
    for workers in args.workers:
        row = run_rung_child(__file__, [str(workers)], args.src)
        print(f"{row['workers']:>7} {row['wall_s']:>7.2f} "
              + " ".join(f"{row[name + '_s']:>9.3f}" for name in STAGES)
              + f" {row['conflicts']:>9} {row['makespan']:>9} "
              f"{row['area_after']:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
