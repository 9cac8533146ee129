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
bytes per AND (RSS growth over generation), the read graph's journal
entries per AND, and its bytes per AND by owner (``sys.getsizeof``):
its seven node columns (lists, or numpy columns counted whole), the
fanout containers, the strash and the mutation journal — each int
object counted once, under the first of those owners that holds it,
and the interpreter's cached small ints under none.  That walk runs
last, on a second read of the file, after every peak is taken: it
holds ≈ 450 bytes per AND of temporaries, which would otherwise stay
in the heap under the rewrite's peak.  Rungs of at most
``REWRITE_MAX`` ANDs (139k and below) also rewrite the circuit read
back with ``DACParaRewriter(dacpara_config())`` and report nodes/s,
the peak RSS after it and what the run added per AND (``run_B/AND``:
peak after the rewrite minus the peak after write + read, over the
ANDs), the run's cut table (the manager's per-var index, bytes per
AND), its cut arena — the largest thing a rewrite holds besides the
graph: rows used at the end, bytes per row, rows allocated and growth
copies (``-`` for a tree whose arena does not count them) — and the
widest merge-kernel call: its cut pairs and its scratch (the
``tracemalloc`` peak inside the call, its result block included; only
a call wider than every earlier one is traced).
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
import tracemalloc
from pathlib import Path

import numpy as np
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


def _watch_managers() -> list:
    """The list every cut manager built from now on is appended to (a
    run keeps its cut manager local)."""
    from repro.cuts.manager import CutManager

    managers: list = []
    real_init = CutManager.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        managers.append(self)

    CutManager.__init__ = init
    return managers


def _watch_kernel() -> list:
    """The one-element list holding the widest merge-kernel call from
    now on as ``(pairs, traced peak bytes)``: only a call wider than
    every earlier one runs under ``tracemalloc``, so the rest of the
    run is timed and sized untraced."""
    from repro.cuts.manager import CutManager

    widest = [(0, 0)]
    real_core = CutManager._columnar_core

    def core(self, roots, comp, rows, n0s, n1s):
        pairs = int((n0s * n1s).sum())
        if pairs <= widest[0][0]:
            return real_core(self, roots, comp, rows, n0s, n1s)
        tracemalloc.start()
        try:
            out = real_core(self, roots, comp, rows, n0s, n1s)
            widest[0] = pairs, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out

    CutManager._columnar_core = core
    return widest


def _owner_bytes(aig) -> dict:
    """Bytes of ``aig``'s store by owner (see the module docstring)."""
    owners = {"columns": [aig._kind, aig._fanin0, aig._fanin1, aig._nref,
                          aig._level, aig._stamp, aig._life],
              "fanouts": [aig._fanouts], "strash": [aig._strash],
              "journal": [aig._mutation_log]}
    seen = np.empty(0, dtype=np.int64)
    out = {}
    for name, roots in owners.items():
        held, ints, stack = 0, [], list(roots)
        while stack:  # containers one or two deep: lists, sets, tuples, a dict
            obj = stack.pop()
            if type(obj) is int:
                if not -5 <= obj <= 256:
                    ints.append(obj)
                continue
            held += sys.getsizeof(obj)  # an ndarray: header and data
            if not isinstance(obj, np.ndarray):
                stack.extend(obj)
            if isinstance(obj, dict):
                stack.extend(obj.values())
        ids = np.fromiter(map(id, ints), dtype=np.int64, count=len(ints))
        sizes = np.fromiter(map(sys.getsizeof, ints), dtype=np.int64, count=len(ints))
        ids, first = np.unique(ids, return_index=True)
        fresh = ~np.isin(ids, seen, assume_unique=True)
        out[name] = held + int(sizes.take(first).compress(fresh).sum())
        seen = np.union1d(seen, ids)
    return out


def _rewrite(aig, signature: int, row: dict) -> None:
    """Rewrite ``aig`` in place and fill in the run's columns; exits
    non-zero if the output fails ``check()`` or the signature."""
    from repro.aig import check, random_simulation
    from repro.config import dacpara_config
    from repro.core.dacpara import DACParaRewriter

    managers, widest = _watch_managers(), _watch_kernel()
    start = time.perf_counter()
    result = DACParaRewriter(dacpara_config()).run(aig)
    row["nodes_per_s"] = result.area_before / (time.perf_counter() - start)
    row["peak_rss_mb"] = _rss_mb()
    row["run_b_per_and"] = (row["peak_rss_mb"] - row["rss_io_mb"]) * 2**20 / row["ands"]
    cutman, = managers  # dacpara_config() runs unsharded: one manager
    row["table_b_per_and"] = cutman._tab.nbytes / row["ands"]
    arena = cutman._arena
    row["arena_rows"] = arena.used
    row["arena_reserved"] = len(arena.cols[1])
    row["arena_b_per_row"] = sum(col.nbytes for col in arena.cols) // len(arena.cols[1])
    if hasattr(arena, "growths"):
        row["arena_growths"] = arena.growths
    row["kernel_pairs"], scratch = widest[0]
    row["kernel_mb"] = scratch / 2**20
    check(aig)
    if random_simulation(aig, SIGNATURE_BITS, 0) != signature:
        raise SystemExit(f"nodes={row['nodes']}: signature mismatch")


def run_rung(nodes: int) -> dict:
    """One rung, in this process."""
    from repro.aig import random_simulation, read_aiger, write_aig
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
        row["journal_per_and"] = len(aig._mutation_log) / ands
        start = time.perf_counter()
        signature = random_simulation(aig, SIGNATURE_BITS, 0)
        row["simulate_s"] = time.perf_counter() - start
        if ands <= REWRITE_MAX:
            _rewrite(aig, signature, row)
        del aig  # the owner walk goes last (module docstring)
        for name, held in _owner_bytes(read_aiger(path)).items():
            row[f"{name}_b_per_and"] = held / ands
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
               ("cols_B/AND", "columns_b_per_and", ".0f"),
               ("fout_B/AND", "fanouts_b_per_and", ".0f"),
               ("strash_B/AND", "strash_b_per_and", ".0f"),
               ("jrnl_B/AND", "journal_b_per_and", ".0f"),
               ("jrnl/AND", "journal_per_and", ".2f"),
               ("nodes/s", "nodes_per_s", ".0f"), ("peak", "peak_rss_mb", ".1f"),
               ("run_B/AND", "run_b_per_and", ".0f"),
               ("tab_B/AND", "table_b_per_and", ".0f"),
               ("arena_rows", "arena_rows", "d"), ("B/row", "arena_b_per_row", "d"),
               ("reserved", "arena_reserved", "d"),
               ("growths", "arena_growths", "d"),
               ("kern_pairs", "kernel_pairs", "d"), ("kern_MB", "kernel_mb", ".1f"))
    print(" ".join(f"{title:>11}" for title, *_ in columns))
    for nodes in args.nodes:
        row = run_rung_child(__file__, [str(nodes)], args.src)
        print(" ".join(f"{_cell(row, key, fmt):>11}" for _, key, fmt in columns),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
