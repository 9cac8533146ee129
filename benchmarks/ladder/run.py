"""``ladder``: the repo's end-to-end rewrite benchmark.

A closed loop of one client: this process launches one fresh child
(``child.py``) per run, one at a time, takes medians over the runs and
prints every metric by name with its unit.

    python3 benchmarks/ladder/run.py [--seed S]            # whole ladder
    python3 benchmarks/ladder/run.py --workload W --seed S \\
            --seconds N --trace 0|1                         # one contract run
    python3 benchmarks/ladder/run.py --agree A.json B.json
    python3 benchmarks/ladder/run.py --manifest             # BENCHMARK.json

End-to-end metrics come from untraced children only; ``--trace 1``
adds one traced child (the per-layer numbers) and, for the pool
workloads, one in-process reference child (the parallel ratios).
End-to-end timings are drift-corrected: this process runs slices of a
fixed calibration kernel (``calibrate.py``) between the children, and
the invocation's timings are scaled by the speed factor those slices
give.  Exits non-zero on any failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The benchmark runs from a source checkout, never an installed package.
sys.path.insert(0, str(ROOT / "src"))

from calibrate import REFERENCE_S, slices  # noqa: E402
from metrics import CATALOGUE, manifest_entries  # noqa: E402

RESULTS_DIR = HERE / "results"
RUN_SECONDS = 32
MIN_RUNS = 3  # untraced children per measurement, whatever the budget
CHILD_TIMEOUT = 150.0
PHASE_METRICS = ("setup.import_s", "setup.generate_s", "library.build_s",
                 "npn.lut_build_s", "io.write_s", "io.read_s",
                 "verify.check_s", "verify.sim_s")


# -- children ------------------------------------------------------------

def spawn_child(workload: str, seed: int, jobs: int, trace: bool = False,
                reference: bool = False) -> dict:
    """Run one child to completion; a child that crashed, hung or
    printed no record comes back as a record with only ``failures``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--jobs", str(jobs), "--spawned-at", repr(time.time())]
    if reference:
        cmd.append("--reference")
    if trace:
        cmd += ["--spans-out",
                str(RESULTS_DIR / f"{workload}.seed{seed}.spans.json")]
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")
    # Own session, so a hung child's pool workers can be killed with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {CHILD_TIMEOUT:.0f}s"
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    reason = (err.strip().splitlines() or ["no output"])[-1]
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "reference": reference,
            "failures": [f"child exit {proc.returncode}: {reason}"]}


def flag_disagreements(records: List[dict]) -> None:
    """Repeats of one workload must agree exactly on what they did to
    the circuit; the odd ones out are failed runs."""
    def fingerprint(r: dict) -> tuple:
        return r["area_after"], r["depth_after"], r["replacements"]

    done = [r for r in records if "area_after" in r and not r["reference"]]
    if not done:
        return
    majority, _ = Counter(map(fingerprint, done)).most_common(1)[0]
    for record in done:
        if fingerprint(record) != majority:
            record["failures"].append(
                f"disagrees with sibling repeats: {fingerprint(record)} "
                f"vs {majority}")


def _median_of(records: List[dict], key: str) -> Optional[float]:
    values = [r[key] for r in records]
    return statistics.median(values) if values else None


def calibration(cal_s: Sequence[float]) -> Dict[str, Optional[float]]:
    """The machine's state over one invocation: the lower quartile of
    its calibration slices (interference only ever lengthens a slice,
    so the low end is the undisturbed speed at the machine's current
    level) and the factor that scales a timing measured at that speed
    to the reference speed."""
    if len(cal_s) < 2:
        return {"calibration.slice_s": None, "calibration.speed_factor": None}
    slice_s = statistics.quantiles(cal_s, n=4)[0]
    return {"calibration.slice_s": slice_s,
            "calibration.speed_factor": REFERENCE_S / slice_s}


def measure(workload, seed: int, seconds: float, trace: bool,
            jobs: int) -> dict:
    """Run ``workload`` for about ``seconds`` and summarize it."""
    started = time.monotonic()
    needs_reference = workload.config(jobs).executor == "process"
    traced = reference = None
    if trace:
        traced = spawn_child(workload.name, seed, jobs, trace=True)
        if needs_reference:
            reference = spawn_child(workload.name, seed, jobs, reference=True)
    untraced: List[dict] = []
    # The yardstick runs here, between the children, so that it shares
    # nothing with the measured process but the machine.
    cal_s = slices()
    longest = 0.0
    while len(untraced) < MIN_RUNS or \
            time.monotonic() - started + longest < seconds:
        began = time.monotonic()
        untraced.append(spawn_child(workload.name, seed, jobs))
        cal_s += slices()
        longest = max(longest, time.monotonic() - began)
    return summarize(workload, jobs, untraced, traced, reference, cal_s)


def summarize(workload, jobs: int, untraced: List[dict],
              traced: Optional[dict] = None,
              reference: Optional[dict] = None,
              cal_s: Sequence[float] = ()) -> dict:
    """One workload's report.  End-to-end metrics (over the untraced
    runs that did not fail; timings scaled by the speed factor that the
    calibration slices ``cal_s`` give) when there is no traced record,
    per-layer metrics when there is."""
    records = [r for r in (traced, reference) if r is not None] + untraced
    flag_disagreements(records)
    good = [r for r in untraced if not r["failures"]]
    report = {
        "why": workload.why,
        "runs": len(records),
        "failed_runs": sum(1 for r in records if r["failures"]),
        "failures": [f for r in records for f in r["failures"]],
        "end_to_end": {}, "per_layer": {}, "untraced": [],
    }
    if traced is None:
        report["calibration"] = calibration(cal_s)
        report["cal_s"] = list(cal_s)
        factor = report["calibration"]["calibration.speed_factor"] or 1.0
        for metric in CATALOGUE.end_to_end():
            if not metric.in_manifest or not good:
                continue
            raw = [r[metric.name] for r in good]
            samples = [x * factor ** metric.drift_power for x in raw]
            if metric.best:
                value = (max if metric.better == "higher" else min)(samples)
            else:
                value = statistics.median(samples)
            report["end_to_end"][metric.name] = {
                "value": value, "raw_median": statistics.median(raw),
                "min": min(samples), "max": max(samples), "n": len(samples),
                "samples": samples,
            }
        return report

    layers: Dict[str, Optional[float]] = dict.fromkeys(
        (m.name for m in CATALOGUE.per_layer()), None)
    layers.update(traced.get("layers", {}))
    report["untraced"] = traced.get("untraced", [])
    phases = [r["phases"] for r in [traced] + untraced if "phases" in r]
    for name in PHASE_METRICS:
        layers[name] = _median_of(phases, name)
    layers.update(calibration(cal_s))
    wall = _median_of(good, "wall_s")
    if wall and "wall_s" in traced:
        layers["trace.overhead_ratio"] = traced["wall_s"] / wall
    if wall and reference is not None and "wall_s" in reference:
        layers["procpool.vs_inproc_ratio"] = wall / reference["wall_s"]
        if workload.config(jobs).shards > 1:
            layers["shards.vs_inproc_ratio"] = reference["wall_s"] / wall
    report["per_layer"] = CATALOGUE.checked(layers)
    return report


# -- reporting -----------------------------------------------------------

def environment(seed: int, seconds: float, jobs: int) -> dict:
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        revision = probe.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)), "jobs": jobs,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_revision": revision, "seed": seed, "seconds": seconds,
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def print_report(name: str, report: dict) -> None:
    print(f"== {name}: {report['runs']} runs, "
          f"failed_runs = {report['failed_runs']}")
    for failure in report["failures"]:
        print(f"   FAILED: {failure}")
    for metric, row in report["end_to_end"].items():
        spec = CATALOGUE[metric]
        kind = "best" if spec.best else "median"
        if spec.drift_power:
            kind += f", drift-corrected; raw median {_fmt(row['raw_median'])}"
        print(f"   {metric:<28} {_fmt(row['value']):>12} {spec.unit:<8} "
              f"[{kind}; min {_fmt(row['min'])}, max {_fmt(row['max'])}, "
              f"n={row['n']}; bound {spec.bound:.0%}]")
    shown_below = report["per_layer"]  # the whole ladder merges both
    for name, value in report.get("calibration", {}).items():
        if name in shown_below:
            continue
        print(f"   {name:<28} {_fmt(value):>12} {CATALOGUE[name].unit}")
    layers = report["per_layer"]
    total = layers.get("run.total_s")
    for metric, value in layers.items():
        spec = CATALOGUE[metric]
        note = ""
        if spec.in_sum and value is not None and total:
            note = f"  ({value / total:.1%} of run.total_s)"
        if metric == "shards.vs_inproc_ratio" and value is not None \
                and value < 1:
            note = "  (overhead_ratio: slower than in-process)"
        print(f"   {metric:<28} {_fmt(value):>12} {spec.unit:<8}{note}")
    if report["untraced"]:
        print(f"   untraced targets: {', '.join(report['untraced'])}")


def contract_line(report: dict, trace: bool) -> str:
    """The result line the benchmark contract asks for.  A metric the
    run could not measure (untraced target, ratio that does not apply
    to this workload) is ``null`` in the result file and 0 here."""
    if trace:
        values = report["per_layer"]
    else:
        values = {k: row["value"] for k, row in report["end_to_end"].items()}
    metrics = {
        name: {"value": 0.0 if value is None else value,
               "unit": CATALOGUE[name].unit}
        for name, value in values.items()
    }
    return json.dumps({
        "correct": report["failed_runs"] == 0, "attempted": report["runs"],
        "failed": report["failed_runs"], "metrics": metrics,
    })


def write_result(path: Path, env: dict, reports: Dict[str, dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"schema": 1, "env": env, "workloads": reports}, indent=1))


def manifest() -> dict:
    from circuits import WORKLOADS

    return {
        "command": ["python3", "benchmarks/ladder/run.py"],
        "paths": ["benchmarks/ladder"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        **manifest_entries(),
    }


# -- --agree -------------------------------------------------------------

def _spread(samples: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return abs(q3 - q1) / abs(statistics.median(samples))


def agree(path_a: Path, path_b: Path) -> int:
    """Compare two result files against the catalogue's own bounds:
    B is ``worse`` when its median is worse than A's by more than the
    bound, ``unresolved`` when either side's spread exceeds the bound
    (unless every B run beats every A run), else ``ok``.  Count-type
    layer metrics must repeat exactly."""
    a = json.loads(path_a.read_text())["workloads"]
    b = json.loads(path_b.read_text())["workloads"]
    bad = 0
    for workload in a:
        if workload not in b:
            continue
        for name, row_a in a[workload]["end_to_end"].items():
            row_b = b[workload]["end_to_end"].get(name)
            if row_b is None:
                continue
            spec = CATALOGUE[name]
            sign = 1.0 if spec.better == "lower" else -1.0
            worse_by = sign * (row_b["value"] - row_a["value"]) \
                / abs(row_a["value"])
            b_all_better = all(
                sign * (y - x) < 0
                for x in row_a["samples"] for y in row_b["samples"])
            spread = max(_spread(row_a["samples"]), _spread(row_b["samples"]))
            if spread > spec.bound and not b_all_better:
                verdict = "unresolved"
            elif worse_by > spec.bound:
                verdict = "worse"
                bad += 1
            else:
                verdict = "ok"
            print(f"{verdict:<10} {workload:<16} {name:<20} "
                  f"A={_fmt(row_a['value'])} B={_fmt(row_b['value'])} "
                  f"worse_by={worse_by:+.2%} spread={spread:.2%} "
                  f"bound={spec.bound:.0%}")
        for name, value_a in a[workload]["per_layer"].items():
            if CATALOGUE[name].unit != "count":
                continue
            value_b = b[workload]["per_layer"].get(name)
            if value_a != value_b:
                bad += 1
                print(f"{'differs':<10} {workload:<16} {name:<20} "
                      f"A={_fmt(value_a)} B={_fmt(value_b)}")
    return 1 if bad else 0


# -- entry ---------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="result file")
    parser.add_argument("--agree", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.agree:
        return agree(*args.agree)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0

    try:
        from circuits import WORKLOADS, default_jobs, workload_named
    except ImportError as exc:
        print(f"ladder: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    jobs = default_jobs()
    env = environment(args.seed, args.seconds, jobs)
    if args.workload:
        workload = workload_named(args.workload)
        report = measure(workload, args.seed, args.seconds,
                         bool(args.trace), jobs)
        print_report(workload.name, report)
        write_result(
            args.out or RESULTS_DIR / (
                f"{workload.name}.trace{args.trace}.seed{args.seed}.json"),
            env, {workload.name: report})
        values = report["per_layer"] if args.trace else report["end_to_end"]
        if not values:
            return 1  # no run succeeded: nothing to report
        print(contract_line(report, bool(args.trace)))
        return 1 if report["failed_runs"] else 0

    reports: Dict[str, dict] = {}
    for workload in WORKLOADS:
        plain = measure(workload, args.seed, args.seconds, False, jobs)
        traced = measure(workload, args.seed, args.seconds, True, jobs)
        plain["per_layer"] = traced["per_layer"]
        plain["untraced"] = traced["untraced"]
        for key in ("runs", "failed_runs"):
            plain[key] += traced[key]
        plain["failures"] += traced["failures"]
        reports[workload.name] = plain
        print_report(workload.name, plain)
    out = args.out or RESULTS_DIR / f"ladder.seed{args.seed}.json"
    write_result(out, env, reports)
    print(f"[written to {out}]")
    return 1 if any(r["failed_runs"] for r in reports.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
