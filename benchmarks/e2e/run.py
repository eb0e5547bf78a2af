"""The canonical end-to-end benchmark (see ``README.md`` in this directory).

One command runs every workload, checks the outputs and prints every
metric by name with its unit::

    python benchmarks/e2e/run.py [--seed S] [--reps R | --seeds N]
                                 [--workload W] [--traced] [--smoke]
                                 [--selfcheck]

Each measurement is a fresh subprocess of this same file in ``--one``
mode — the form ``BENCHMARK.json``'s ``command`` names::

    python benchmarks/e2e/run.py --one --workload W --seed S --seconds T --trace 0|1

which runs one workload in-process and prints, as the last line of its
standard output, ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The line before it (``DETAIL {...}``) carries what the
orchestrator compares across runs: log digests and network counters.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
#: simulated outcomes: identical for identical inputs, whatever the host
EXACT_METRICS = ("success_rate", "mean_reliability")
RUN_TIMEOUT_S = 175
#: A measurement runs under this environment (``--one`` starts its
#: interpreter again if it has to).  String-hash randomisation moves dict
#: collision patterns, and with them the timings, by a few per cent from
#: process to process; and with one malloc arena per thread, whether the
#: service's restore reuses the memory of the evicted session depends on
#: which arena glibc hands to which request thread (peak RSS +-20 %).
PINNED_ENV = {"PYTHONHASHSEED": "0", "MALLOC_ARENA_MAX": "1"}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# --one: a single measurement in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, benchmark: dict) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure ({SRC}/repro is missing)", file=sys.stderr)
        return 2
    if any(os.environ.get(name) != value for name, value in PINNED_ENV.items()):
        os.execve(
            sys.executable,
            [sys.executable, os.path.join(HERE, "run.py"), *sys.argv[1:]],
            {**os.environ, **PINNED_ENV},
        )
    sys.path.insert(0, SRC)
    from layers import layer_metrics
    from tracer import NullTracer, Tracer, install
    from workloads import RUN_SECONDS, SMOKE, WORKLOADS, run_workload

    spec = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    traced = bool(args.trace)
    tracer = install(Tracer()) if traced else NullTracer()
    scratch = os.path.join(RESULTS, "tmp")
    os.makedirs(scratch, exist_ok=True)
    try:
        outcome = run_workload(spec, args.seed, args.seconds / RUN_SECONDS, tracer, scratch)
    finally:
        if traced:
            tracer.uninstall()
    if traced:
        values = layer_metrics(tracer, outcome.counters, outcome.metrics["wall_s"])
        declared = benchmark["per_layer"]
        header = {
            "workload": spec.name,
            "seed": args.seed,
            "smoke": args.smoke,
            "wall_s": outcome.metrics["wall_s"],
            "coverage": values["trace.coverage"],
        }
        suffix = ".smoke.json" if args.smoke else ".json"
        tracer.write(os.path.join(RESULTS, f"trace_{spec.name}{suffix}"), header)
    else:
        values = outcome.metrics
        declared = benchmark["end_to_end"]
    names = [metric["name"] for metric in declared]
    outcome.check(
        sorted(values) == sorted(names),
        f"emitted and declared metrics differ: {sorted(set(values) ^ set(names))}",
    )
    outcome.check(
        all(math.isfinite(v) for v in values.values()),
        f"non-finite metrics: {sorted(n for n, v in values.items() if not math.isfinite(v))}",
    )
    for failure in outcome.failures:
        print(f"FAILED CHECK [{spec.name} seed {args.seed}]: {failure}", file=sys.stderr)
    detail = {
        "workload": spec.name,
        "seed": args.seed,
        "digests": outcome.digests,
        "net": outcome.net,
        "failures": outcome.failures,
        "end_to_end": outcome.metrics,
    }
    if traced:
        detail["layers_self_s"] = tracer.layer_self_s()
    print("DETAIL " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not outcome.failures,
                "attempted": outcome.attempted,
                "failed": len(outcome.failures),
                "metrics": {
                    metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in declared
                    if metric["name"] in values
                },
            }
        )
    )
    return 0 if not outcome.failures else 1


# ----------------------------------------------------------------------
# Orchestrator: sets of runs, each a fresh subprocess, one at a time
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: int, traced: bool, smoke: bool) -> dict:
    """Run one child; returns its result line merged with its detail line,
    or ``{"raised": reason}`` when it produced no result."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--one",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0",
    ]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"raised": f"no result within {RUN_TIMEOUT_S} s", "workload": workload, "seed": seed}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("DETAIL "):
        return {"raised": f"exit code {proc.returncode}, no result", "workload": workload, "seed": seed}
    run = json.loads(lines[-1])
    run.update(json.loads(lines[-2][len("DETAIL "):]))
    return run


def run_set(workloads: List[str], seeds: List[int], args: argparse.Namespace) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for workload in workloads:
        for seed in seeds:
            run = spawn(workload, seed, args.seconds, False, args.smoke)
            runs.setdefault(workload, []).append(run)
            if "raised" in run:
                print(f"  {workload} seed {seed}: RAISED ({run['raised']})")
            else:
                e2e = run["end_to_end"]
                print(
                    f"  {workload} seed {seed}: wall {e2e['wall_s']:.2f} s"
                    f" (setup {e2e['setup_s']:.2f}, plan {e2e['plan_s']:.2f}),"
                    f" failed {run['failed']}/{run['attempted']}"
                )
    return runs


def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (None below 4 runs)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: List[dict], declared: List[dict]) -> Dict[str, dict]:
    """Per metric: median, min, max, n and spread over the runs that
    produced a result."""
    good = [run for run in runs if "raised" not in run]
    table = {}
    for metric in declared:
        values = [run["metrics"][metric["name"]]["value"] for run in good]
        if values:
            table[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
                "spread": spread(values),
            }
    return table


def determinism_failures(runs: List[dict]) -> List[str]:
    """Same-seed runs must agree on every simulated outcome."""
    failures = []
    by_seed: Dict[int, dict] = {}
    for run in runs:
        if "raised" in run:
            continue
        first = by_seed.setdefault(run["seed"], run)
        if first is run:
            continue
        label = f"{run['workload']} seed {run['seed']}"
        if run["digests"] != first["digests"]:
            failures.append(f"{label}: log_digest differs between repetitions")
        if run["net"] != first["net"]:
            failures.append(f"{label}: Network.stats.snapshot() differs between repetitions")
        for name in EXACT_METRICS:
            if run["end_to_end"][name] != first["end_to_end"][name]:
                failures.append(f"{label}: {name} differs between repetitions")
    return failures


def failed_share(runs: List[dict], extra_failures: int) -> float:
    attempted = sum(run.get("attempted", 1) for run in runs)
    failed = sum(1 if "raised" in run else run["failed"] for run in runs)
    return (failed + extra_failures) / max(1, attempted)


def print_table(title: str, table: Dict[str, dict]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<30} {'unit':>6} {'median':>14} {'min':>14} {'max':>14} {'n':>3} {'spread':>8}")
    for name, row in table.items():
        shown = "" if row.get("spread") is None else f"{100 * row['spread']:.2f}%"
        print(
            f"  {name:<30} {row['unit']:>6} {row['median']:>14.6g} {row['min']:>14.6g}"
            f" {row['max']:>14.6g} {row['n']:>3} {shown:>8}"
        )


def compare_sets(first: Dict[str, dict], second: Dict[str, dict], declared: List[dict]) -> Dict[str, dict]:
    """Median-to-median disagreement of two sets of the same code."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name not in first or name not in second:
            continue
        a, b = first[name]["median"], second[name]["median"]
        out[name] = {
            "first": a,
            "second": b,
            "rel_diff": abs(b - a) / abs(a) if a else 0.0,
            "bound": metric["bound"],
            "spread_first": first[name]["spread"],
            "spread_second": second[name]["spread"],
        }
    return out


def report_selfcheck(workload: str, tables: List[Dict[str, dict]], declared: List[dict]) -> tuple:
    """Print and return (noise record, problems) of two sets of one code."""
    noise = compare_sets(tables[0], tables[1], declared)
    problems = []
    print(f"  selfcheck, second set against first ({workload}):")
    for name, row in noise.items():
        agree = row["rel_diff"] <= row["bound"]
        print(
            f"    {name:<28} {row['first']:>14.6g} -> {row['second']:>14.6g}"
            f"  {100 * row['rel_diff']:6.2f}% (bound {100 * row['bound']:.0f}%)"
            f"  {'ok' if agree else 'DISAGREE'}"
        )
        if not agree:
            problems.append(f"{workload}: {name} disagrees between two sets of the same code")
    return noise, problems


def report_traced(traced: dict, declared: List[dict], untraced_wall_s: Optional[float]) -> dict:
    """Print the per-layer table of one traced run; returns its record."""
    print_table(
        f"{traced['workload']}: per-layer (traced run, seed {traced['seed']})",
        summarize([traced], declared),
    )
    overhead = traced["end_to_end"]["wall_s"] / untraced_wall_s if untraced_wall_s else None
    if overhead is not None:
        print(f"  {'trace.overhead_ratio':<30} {'ratio':>6} {overhead:>14.6g}")
    top = list(traced["layers_self_s"].items())[:3]
    print("  top layers by self time: " + ", ".join(f"{k} {v:.2f} s" for k, v in top))
    return {
        "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        "trace.overhead_ratio": overhead,
        "layers_self_s": traced["layers_self_s"],
    }


def orchestrate(args: argparse.Namespace, benchmark: dict) -> int:
    workloads = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
    seeds = (
        list(range(args.seed, args.seed + args.seeds)) if args.seeds else [args.seed] * args.reps
    )
    os.makedirs(RESULTS, exist_ok=True)
    print(f"set 1: seeds {seeds}, --seconds {args.seconds}{', smoke sizes' if args.smoke else ''}")
    sets = [run_set(workloads, seeds, args)]
    if args.selfcheck:
        print("set 2 (same code, same seeds)")
        sets.append(run_set(workloads, seeds, args))
    problems: List[str] = []
    report: Dict[str, dict] = {}
    for workload in workloads:
        runs = [run for one_set in sets for run in one_set[workload]]
        mismatches = determinism_failures(runs)
        problems += mismatches
        problems += [
            f"{workload} seed {run['seed']}: {reason}"
            for run in runs
            for reason in ([run["raised"]] if "raised" in run else run["failures"])
        ]
        tables = [summarize(one_set[workload], benchmark["end_to_end"]) for one_set in sets]
        entry = report[workload] = {
            "end_to_end": tables[0],
            "failed_share": failed_share(runs, len(mismatches)),
            "digests": {str(run["seed"]): run["digests"] for run in runs if "raised" not in run},
        }
        print_table(f"{workload}: end-to-end (tracing off)", tables[0])
        print(f"  {'failed_share':<30} {'share':>6} {entry['failed_share']:>14.6g}")
        if args.selfcheck:
            entry["noise"], disagreements = report_selfcheck(workload, tables, benchmark["end_to_end"])
            problems += disagreements
        if args.traced:
            traced = spawn(workload, args.seed, args.seconds, True, args.smoke)
            if "raised" in traced:
                problems.append(f"{workload} traced: {traced['raised']}")
                continue
            problems += [f"{workload} traced: {reason}" for reason in traced["failures"]]
            untraced_wall_s = tables[0].get("wall_s", {}).get("median")
            entry.update(report_traced(traced, benchmark["per_layer"], untraced_wall_s))
    with open(os.path.join(RESULTS, "latest.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"seeds": seeds, "seconds": args.seconds, "smoke": args.smoke, "workloads": report},
            fh, indent=1,
        )
        fh.write("\n")
    if args.selfcheck and not args.smoke:
        with open(os.path.join(HERE, "noise.json"), "w", encoding="utf-8") as fh:
            json.dump({w: report[w]["noise"] for w in workloads}, fh, indent=1)
            fh.write("\n")
    if problems:
        print(f"\n{len(problems)} problem(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nall output checks passed")
    return 0


def main() -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="only this workload")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds", type=int, default=benchmark["run_seconds"],
        help="nominal run length; scales the operation budgets",
    )
    parser.add_argument("--reps", type=int, default=3, help="same-seed repetitions per workload")
    parser.add_argument(
        "--seeds", type=int, default=0,
        help="instead of --reps: one run at each of N seeds from --seed",
    )
    parser.add_argument(
        "--traced", action="store_true",
        help="one extra traced run per workload: per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="N <= 300 sizes, seconds in total")
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run the set twice and compare medians to the bounds",
    )
    parser.add_argument(
        "--one", action="store_true",
        help="a single measurement in this process (what BENCHMARK.json's command runs)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="--one: 1 = traced run, per-layer metrics",
    )
    args = parser.parse_args()
    if args.one:
        if not args.workload:
            parser.error("--one needs --workload")
        return run_one(args, benchmark)
    return orchestrate(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
