"""Off-contract size ladder: what does a run pay per AND as circuits grow?

    python3 benchmarks/scale_size.py [--nodes 12000 25000 100000 400000]
                                     [--src DIR]

Each rung is ``mtm_like(24, nodes, seed=7)`` — the ladder's wide base
circuit at ``nodes=12000`` (16.7k ANDs; 100000 → 139k, 400000 → 556k)
— run in one fresh process through the cold path a ``repro rewrite``
pays once per circuit: generate, ``write_aig``, ``read_aiger`` (the
generated graph deleted first, as the ladder's child does) and a
1024-bit ``random_simulation``.  A row reports the seconds of each
step, the peak RSS (``ru_maxrss``) after generation and after write +
read, the file's bytes per AND and the generated graph's resident
bytes per AND (RSS growth over generation).  Rungs of at most
``REWRITE_MAX`` ANDs (139k and below) also rewrite the circuit read
back with ``DACParaRewriter(dacpara_config())`` and report nodes/s,
the peak RSS after it and what the run added per AND (``run_B/AND``:
peak after the rewrite minus the peak after write + read, over the
ANDs), and the run's cut arena — the largest thing a rewrite holds
besides the graph: rows used at the end, bytes per row, rows allocated
and growth copies (``-`` for a tree whose arena does not count them).
The output is ``check()``-ed and its signature compared with the
input's, and a rung that fails either exits non-zero.

Not part of ``BENCHMARK.json``; ``--src`` points the children at
another checkout's ``src/`` so a parent commit can be measured with the
same script (EXPERIMENTS.md, "The cold path").  The host is bursty:
alternate parent and change runs before reading a difference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from rung_child import run_rung_child

ROOT = Path(__file__).resolve().parents[1]
SIGNATURE_BITS = 1024
REWRITE_MAX = 140_000


def _rss_mb() -> float:
    """Peak resident set of this process so far, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _watch_arenas() -> list:
    """The list every cut arena built from now on is appended to (a
    run keeps its cut manager local)."""
    from repro.cuts import manager

    arenas: list = []
    real_init = manager._Arena.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        arenas.append(self)

    manager._Arena.__init__ = init
    return arenas


def run_rung(nodes: int) -> dict:
    """One rung, in this process."""
    from repro.aig import check, random_simulation, read_aiger, write_aig
    from repro.bench import mtm_like

    row: dict = {"nodes": nodes}
    before = _current_rss_bytes()
    start = time.perf_counter()
    generated = mtm_like(24, nodes, seed=7)
    row["generate_s"] = time.perf_counter() - start
    ands = row["ands"] = generated.num_ands
    row["graph_b_per_and"] = (_current_rss_bytes() - before) / ands
    row["rss_gen_mb"] = _rss_mb()
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "rung.aig"
        start = time.perf_counter()
        write_aig(generated, path)
        row["write_s"] = time.perf_counter() - start
        row["file_b_per_and"] = path.stat().st_size / ands
        del generated
        start = time.perf_counter()
        aig = read_aiger(path)
        row["read_s"] = time.perf_counter() - start
    row["rss_io_mb"] = _rss_mb()
    start = time.perf_counter()
    signature = random_simulation(aig, SIGNATURE_BITS, 0)
    row["simulate_s"] = time.perf_counter() - start
    if ands <= REWRITE_MAX:
        from repro.config import dacpara_config
        from repro.core.dacpara import DACParaRewriter

        arenas = _watch_arenas()
        start = time.perf_counter()
        result = DACParaRewriter(dacpara_config()).run(aig)
        row["nodes_per_s"] = result.area_before / (time.perf_counter() - start)
        row["peak_rss_mb"] = _rss_mb()
        row["run_b_per_and"] = (row["peak_rss_mb"] - row["rss_io_mb"]) * 2**20 / ands
        arena, = arenas  # dacpara_config() runs unsharded: one manager
        row["arena_rows"] = arena.used
        row["arena_reserved"] = len(arena.cols[1])
        row["arena_b_per_row"] = sum(col.nbytes for col in arena.cols) // len(arena.cols[1])
        if hasattr(arena, "growths"):
            row["arena_growths"] = arena.growths
        check(aig)
        if random_simulation(aig, SIGNATURE_BITS, 0) != signature:
            raise SystemExit(f"nodes={nodes}: signature mismatch")
    return row


def _cell(row: dict, key: str, fmt: str) -> str:
    return format(row[key], fmt) if key in row else "-"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, nargs="+",
                        default=[12000, 25000, 100000, 400000],
                        help="mtm_like node counts, one rung each")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src/ directory the children import repro from")
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rung is not None:
        print(json.dumps(run_rung(args.rung)))
        return 0

    columns = (("ANDs", "ands", "d"), ("gen_s", "generate_s", ".3f"),
               ("write_s", "write_s", ".3f"), ("read_s", "read_s", ".3f"),
               ("sim_s", "simulate_s", ".3f"), ("rss_gen", "rss_gen_mb", ".1f"),
               ("rss_io", "rss_io_mb", ".1f"),
               ("file_B/AND", "file_b_per_and", ".2f"),
               ("graph_B/AND", "graph_b_per_and", ".0f"),
               ("nodes/s", "nodes_per_s", ".0f"), ("peak", "peak_rss_mb", ".1f"),
               ("run_B/AND", "run_b_per_and", ".0f"),
               ("arena_rows", "arena_rows", "d"), ("B/row", "arena_b_per_row", "d"),
               ("reserved", "arena_reserved", "d"),
               ("growths", "arena_growths", "d"))
    print(" ".join(f"{title:>11}" for title, *_ in columns))
    for nodes in args.nodes:
        row = run_rung_child(__file__, [str(nodes)], args.src)
        print(" ".join(f"{_cell(row, key, fmt):>11}" for _, key, fmt in columns),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
