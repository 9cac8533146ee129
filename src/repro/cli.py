"""Command-line interface: ``python -m repro <command> ...``

Commands:

* ``stats FILE``                      — print circuit statistics
* ``rewrite IN -o OUT``               — run a rewriting engine
* ``profile IN``                      — per-stage/per-level breakdown
* ``cec A B``                         — prove or refute equivalence
* ``gen NAME -o OUT``                 — generate a benchmark circuit

``cec`` and ``rewrite --verify`` both call
:func:`repro.sat.check_equivalence_auto` and print the method that
decided (``exhaustive`` or ``sat-sweep``; both are proofs).

Observability: ``rewrite`` accepts ``--trace out.trace.json`` (Chrome
trace-event format — open in Perfetto), ``--events out.jsonl`` (JSONL
stream), ``--json`` (machine-readable result on stdout) and
``--progress`` (live status line on stderr).  Trace timestamps are
simulated work units, so a re-run with the same inputs is
byte-identical.

Each command imports what it runs inside its handler: ``stats`` and
``gen`` load no engine, and only ``cec`` and ``rewrite --verify`` load
the SAT package.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import TYPE_CHECKING, List, Optional

from .aig import Aig, read_aiger, write_aag, write_aig
from .config import EXECUTOR_KINDS
from .errors import ReproError
from .experiments.runner import ENGINE_FACTORIES, make_engine

if TYPE_CHECKING:
    from .obs import TracingObserver


def _write(aig: Aig, path: str) -> None:
    if path.endswith(".aag"):
        write_aag(aig, path)
    else:
        write_aig(aig, path)


def _cmd_stats(args: argparse.Namespace) -> int:
    aig = read_aiger(args.input)
    record = {
        "input": args.input,
        "pis": aig.num_pis,
        "pos": aig.num_pos,
        "ands": aig.num_ands,
        "depth": aig.max_level(),
    }
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(
            f"{args.input}: pis={record['pis']} pos={record['pos']} "
            f"ands={record['ands']} depth={record['depth']}"
        )
    return 0


def _make_observer(args: argparse.Namespace) -> Optional[TracingObserver]:
    wants = (args.trace or args.events or args.json
             or getattr(args, "progress", False))
    if not wants:
        return None
    from .obs import ProgressLine, TracingObserver

    obs = TracingObserver()
    if getattr(args, "progress", False):
        obs.progress = ProgressLine()
    return obs


def _export_observation(args: argparse.Namespace, obs: Optional[TracingObserver],
                        engine_name: str) -> None:
    if obs is None:
        return
    from .obs import chrome_trace_json, write_jsonl

    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(chrome_trace_json(
                obs.tracer,
                metadata={"engine": engine_name, "input": args.input},
            ))
    if args.events:
        write_jsonl(args.events, obs.tracer, obs.metrics)


def _cmd_rewrite(args: argparse.Namespace) -> int:
    aig = read_aiger(args.input)
    original = aig.copy() if args.verify else None
    obs = _make_observer(args)
    engine = make_engine(args.engine, workers=args.workers, observer=obs)
    config_updates = {}
    if args.executor is not None:
        config_updates["executor"] = args.executor
    if args.jobs is not None:
        config_updates["jobs"] = args.jobs
    if args.shards is not None:
        config_updates["shards"] = args.shards
    if args.shard_min_nodes is not None:
        config_updates["shard_min_nodes"] = args.shard_min_nodes
    if args.shard_passes is not None:
        config_updates["shard_passes"] = args.shard_passes
    if args.no_boundary_cleanup:
        config_updates["boundary_cleanup"] = False
    if args.chunk_timeout is not None:
        config_updates["chunk_timeout_seconds"] = (
            args.chunk_timeout if args.chunk_timeout > 0 else None
        )
    if config_updates:
        if not hasattr(engine, "config"):
            print(
                f"engine {args.engine!r} does not take executor options",
                file=sys.stderr,
            )
            return 1
        engine.config = dataclasses.replace(engine.config, **config_updates)
    start = time.perf_counter()
    try:
        result = engine.run(aig)
    finally:
        if obs is not None and obs.progress is not None:
            obs.progress.close()
    wall = time.perf_counter() - start
    cec = None
    if original is not None:
        from .sat import check_equivalence_auto

        cec = check_equivalence_auto(original, aig)
    if args.json:
        payload = {
            "input": args.input,
            "result": result.to_dict(),
            "wall_seconds": wall,
            "metrics": obs.metrics.snapshot() if obs is not None else None,
        }
        if cec is not None:
            payload["equivalence"] = {
                "equivalent": cec.equivalent, "method": cec.method,
            }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result.summary())
        print(f"wall time: {wall:.2f}s")
        if cec is not None:
            print(
                f"equivalence ({cec.method}): "
                f"{'OK' if cec.equivalent else 'FAILED'}"
            )
    _export_observation(args, obs, args.engine)
    if cec is not None and not cec.equivalent:
        return 2
    if args.output:
        _write(aig, args.output)
        if not args.json:
            print(f"written: {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import TracingObserver, format_profile

    aig = read_aiger(args.input)
    obs = TracingObserver()
    engine = make_engine(args.engine, workers=args.workers, observer=obs)
    result = engine.run(aig)
    print(result.summary())
    stats = getattr(engine, "last_stats", None)
    print(format_profile(obs.tracer, result.workers, stats=stats))
    return 0


def _cmd_cec(args: argparse.Namespace) -> int:
    from .sat import check_equivalence_auto

    a = read_aiger(args.circuit_a)
    b = read_aiger(args.circuit_b)
    result = check_equivalence_auto(a, b)
    if result.equivalent:
        print(f"EQUIVALENT (method: {result.method})")
        return 0
    print(f"NOT EQUIVALENT (method: {result.method})")
    print(f"counterexample: {result.counterexample}")
    return 1


def _cmd_gen(args: argparse.Namespace) -> int:
    from .bench.suite import epfl_names, make_epfl, make_mtm, mtm_names

    if args.name in epfl_names():
        aig = make_epfl(args.name, doubled=not args.base)
    elif args.name in mtm_names():
        aig = make_mtm(args.name)
    else:
        print(
            f"unknown benchmark {args.name!r}; available: "
            f"{', '.join(epfl_names() + mtm_names())}",
            file=sys.stderr,
        )
        return 1
    _write(aig, args.output)
    print(
        f"{args.output}: pis={aig.num_pis} pos={aig.num_pos} "
        f"ands={aig.num_ands} depth={aig.max_level()}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DACPara parallel AIG rewriting"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print circuit statistics")
    p_stats.add_argument("input")
    p_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_rw = sub.add_parser("rewrite", help="run a rewriting engine")
    p_rw.add_argument("input")
    p_rw.add_argument("-o", "--output")
    p_rw.add_argument(
        "--engine", default="dacpara", choices=sorted(ENGINE_FACTORIES)
    )
    p_rw.add_argument("--workers", type=int, default=None)
    p_rw.add_argument(
        "--executor", default=None, choices=sorted(EXECUTOR_KINDS),
        help="execution backend: 'simulated' is the deterministic "
             "instrument, 'process' rewrites the shards of a sharded "
             "run (--shards) on real cores",
    )
    p_rw.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="OS worker processes for --executor process "
             "(default: core count)",
    )
    p_rw.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split the graph into up to N TFI/TFO-disjoint PO-cone "
             "regions and run the whole pipeline per shard "
             "concurrently (boundary nodes frozen; graphs that do not "
             "decompose fall back to the unsharded pipeline)",
    )
    p_rw.add_argument(
        "--shard-min-nodes", type=int, default=None, metavar="N",
        help="minimum owned nodes per shard; the extractor lowers the "
             "shard count rather than fan out smaller regions "
             "(default 256)",
    )
    p_rw.add_argument(
        "--shard-passes", type=int, default=None, metavar="N",
        help="seam-rotation passes for a sharded run: each pass "
             "re-plans the regions with a rotated PO grouping so the "
             "frozen boundary lands on different nodes (default 1)",
    )
    p_rw.add_argument(
        "--no-boundary-cleanup", action="store_true",
        help="skip the sequential cleanup pass that re-rewrites the "
             "former boundary / dangling neighborhood after the "
             "sharded passes (faster, recovers less area)",
    )
    p_rw.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="SECONDS",
        help="deadline per shard on a pool worker; a shard past it is "
             "computed in-parent and the wedged pool restarted "
             "(default 300, 0 disables; --executor process)",
    )
    p_rw.add_argument("--verify", action="store_true")
    p_rw.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome trace-event file (Perfetto / chrome://tracing)",
    )
    p_rw.add_argument(
        "--events", metavar="PATH", help="write a JSONL span/metric stream"
    )
    p_rw.add_argument(
        "--json", action="store_true", help="machine-readable result on stdout"
    )
    p_rw.add_argument(
        "--progress", action="store_true",
        help="live single-line status on stderr (passes/levels/chunks/"
             "retries; terminal only)",
    )
    p_rw.set_defaults(func=_cmd_rewrite)

    p_prof = sub.add_parser(
        "profile", help="run an engine and print a per-stage/per-level breakdown"
    )
    p_prof.add_argument("input")
    p_prof.add_argument(
        "--engine", default="dacpara", choices=sorted(ENGINE_FACTORIES)
    )
    p_prof.add_argument("--workers", type=int, default=None)
    p_prof.set_defaults(func=_cmd_profile)

    p_cec = sub.add_parser("cec", help="prove or refute equivalence of two circuits")
    p_cec.add_argument("circuit_a")
    p_cec.add_argument("circuit_b")
    p_cec.set_defaults(func=_cmd_cec)

    p_gen = sub.add_parser("gen", help="generate a benchmark circuit")
    p_gen.add_argument("name")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument(
        "--base", action="store_true", help="skip the size doubling"
    )
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
