#!/usr/bin/env python
"""Paired, concurrent runs of the end-to-end benchmark: a base tree
against a change tree.

Box speed drifts by tens of per cent between minutes, so a base run and
a change run taken one after the other can differ by more than a
metric's bound on code that does not touch the measured path.  This
tool runs the two sides *at the same time* (never more processes than
cores), alternates which side starts first, and repeats for ``--pairs``
pairs per workload.  Each side is ``benchmarks/e2e/run.py --one``
unchanged, run from its own tree:

* the **base** is ``git archive --base`` (default ``HEAD~1``) unpacked
  into a temporary directory;
* the **change** is the working tree.

Per end-to-end metric of ``BENCHMARK.json`` it prints both medians and
quartiles, the pairs the change won, the median ratio with a 95 %
percentile bootstrap interval (pairs resampled together, fixed seed),
and whether the ratio is within the metric's bound in its better
direction; a claimed gain (``--claim workload:metric``, a declared
metric of a workload being run) is checked too: over at least ten
pairs the change must win at least nine in ten and its median must beat
the base's by more than the base's interquartile range.  Each pair's log digests, ``Network.stats``
and failures must be identical.

``--aa`` runs the change tree against itself: its spread is the box's
noise floor.  ``--digests`` runs one pair per workload and seed and
checks only that identity (no table, no claim).

Usage (from the repository root)::

    python tools/paired.py --base HEAD --workload paper-maintain --pairs 10 \\
        --claim paper-maintain:setup_s
    python tools/paired.py --aa --workload ops-mixed --pairs 5
    python tools/paired.py --base HEAD --digests --seed 0 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600
#: what a pair of runs must agree on (the ``DETAIL`` line of ``--one``)
IDENTITY_KEYS = ("digests", "net", "failures")
#: a claimed gain: the share of pairs the change must win, out of at least
CLAIM_WIN_SHARE = 0.9
CLAIM_MIN_PAIRS = 10
#: the median-ratio interval's resamples and resampling seed
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 2007


# ----------------------------------------------------------------------
# Statistics over recorded runs (no benchmark needed)
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method (exact for 1 value)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def median_ratio(base: Sequence[float], change: Sequence[float]) -> float:
    """The change median over the base median (1.0 for 0/0, inf for x/0)."""
    b_med, c_med = statistics.median(base), statistics.median(change)
    return c_med / b_med if b_med else (1.0 if c_med == b_med else float("inf"))


def bootstrap_interval(base: Sequence[float], change: Sequence[float]) -> Tuple[float, float]:
    """95 % percentile bootstrap interval of :func:`median_ratio`.

    Pairs are resampled together (a pair shares the box's state while
    both sides run), :data:`BOOTSTRAP_RESAMPLES` times from the fixed
    :data:`BOOTSTRAP_SEED`, so one set of recorded runs always gives the
    same interval: the first and last 40-quantiles (2.5 % and 97.5 %) of
    the resampled ratios.
    """
    n = len(base)
    draw = random.Random(BOOTSTRAP_SEED).choices
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        picks = draw(range(n), k=n)
        ratios.append(median_ratio([base[i] for i in picks], [change[i] for i in picks]))
    cuts = statistics.quantiles(ratios, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def compare_metric(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> dict:
    """Summarize one metric over parallel lists of paired runs.

    ``better`` is ``"lower"`` or ``"higher"``.  ``ratio`` is the change
    median over the base median and ``interval`` its
    :func:`bootstrap_interval`; ``within_bound`` says the ratio is no
    worse than ``bound`` in the metric's worse direction; ``gain`` says
    that over at least :data:`CLAIM_MIN_PAIRS` pairs the change won at
    least :data:`CLAIM_WIN_SHARE` of them and its median beats the
    base's by more than the base's interquartile range.
    """
    if len(base) != len(change) or not base:
        raise ValueError(f"need equal, non-empty pair lists, got {len(base)}/{len(change)}")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    ratio = median_ratio(base, change)
    worse_by = sign * (ratio - 1.0)
    return {
        "base": (b_q1, b_med, b_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(base),
        "ratio": ratio,
        "interval": bootstrap_interval(base, change),
        "within_bound": worse_by <= bound,
        "gain": len(base) >= CLAIM_MIN_PAIRS
        and wins >= CLAIM_WIN_SHARE * len(base)
        and sign * (b_med - c_med) > b_q3 - b_q1,
    }


def parse_claims(
    claims: Sequence[str], workloads: Sequence[str], metrics: Sequence[str]
) -> set:
    """``{(workload, metric)}`` from ``workload:metric`` strings; a claim
    on a workload not being run or on an undeclared metric is refused
    (ValueError) rather than silently left unchecked."""
    parsed = set()
    for claim in claims:
        workload, _, metric = claim.partition(":")
        if workload not in workloads:
            raise ValueError(f"claim {claim!r}: workload {workload!r} is not being run")
        if metric not in metrics:
            raise ValueError(f"claim {claim!r}: {metric!r} is not an end-to-end metric")
        parsed.add((workload, metric))
    return parsed


def identity_problems(base: dict, change: dict) -> List[str]:
    """The :data:`IDENTITY_KEYS` on which two runs' details differ."""
    return [key for key in IDENTITY_KEYS if base.get(key) != change.get(key)]


def render(title: str, rows: Dict[str, dict]) -> str:
    """One table: a :func:`compare_metric` row (plus ``unit`` and
    ``claimed``) per metric."""
    lines = [
        f"{title}:",
        f"  {'metric':<18} {'unit':>5} {'base q1/med/q3':>29} "
        f"{'change q1/med/q3':>29} {'won':>6} {'ratio':>7} {'95% interval':>16}  verdict",
    ]
    for name, row in rows.items():
        base = "/".join(f"{v:.4g}" for v in row["base"])
        change = "/".join(f"{v:.4g}" for v in row["change"])
        verdict = "ok" if row["within_bound"] else "WORSE THAN BOUND"
        if row["claimed"]:
            verdict += ", gain " + ("holds" if row["gain"] else "NOT SHOWN")
        interval = "[{:.3f}, {:.3f}]".format(*row["interval"])
        lines.append(
            f"  {name:<18} {row['unit']:>5} {base:>29} {change:>29} "
            f"{row['wins']:>2}/{row['pairs']:<3} {row['ratio']:>7.3f} {interval:>16}  {verdict}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trees and runs
# ----------------------------------------------------------------------
def archive(rev: str, into: str) -> str:
    """Unpack ``git archive rev`` into a new directory under ``into``."""
    target = tempfile.mkdtemp(prefix="tree-", dir=into)
    data = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", target], input=data, check=True)
    return target


def run_side(tree: str, workload: str, seed: int) -> dict:
    """One ``run.py --one`` from ``tree``: its result line merged with its
    detail line, or ``{"raised": reason}``."""
    command = [
        sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"), "--one",
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    try:
        proc = subprocess.run(
            command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"raised": f"no result within {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("DETAIL "):
        return {"raised": f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    run = json.loads(lines[-1])
    run.update(json.loads(lines[-2][len("DETAIL "):]))
    return run


def run_pair(trees: Tuple[str, str], first: int, jobs: int, run, *args) -> Tuple[dict, dict]:
    """``run(tree, *args)`` for both trees, side ``first`` started first,
    at the same time when ``jobs`` allows; returns ``(base, change)``."""
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {side: pool.submit(run, trees[side], *args) for side in (first, 1 - first)}
        return futures[0].result(), futures[1].result()


def pair_problems(where: str, pair: Tuple[dict, dict]) -> List[str]:
    """Why a pair cannot be used: a side that raised, or differing identity."""
    raised = [side["raised"] for side in pair if "raised" in side]
    if raised:
        return [f"{where}: {reason}" for reason in raised]
    return [f"{where}: {key} differ" for key in identity_problems(*pair)]


def digest_pass(trees, jobs, workload, seed) -> List[str]:
    where = f"{workload} seed {seed}"
    pair = run_pair(trees, 0, jobs, run_side, workload, seed)
    problems = pair_problems(where, pair)
    digests = " ".join(d[:8] for d in pair[1].get("digests", []))
    print(f"{where}: " + ("; ".join(problems) if problems else f"identical, digests {digests}"))
    return problems


def timing_pass(trees, jobs, workload, seed, pairs, declared, claims) -> List[str]:
    where = f"{workload} seed {seed}"
    problems: List[str] = []
    runs = []
    for k in range(pairs):
        pair = run_pair(trees, k % 2, jobs, run_side, workload, seed)
        problems += pair_problems(f"{where} pair {k}", pair)
        if not any("raised" in side for side in pair):
            runs.append(pair)
    if not runs:
        return problems
    rows = {}
    for name, metric in declared.items():
        row = rows[name] = compare_metric(
            [b["metrics"][name]["value"] for b, _ in runs],
            [c["metrics"][name]["value"] for _, c in runs],
            metric["better"], metric["bound"],
        )
        row["unit"] = metric["unit"]
        row["claimed"] = (workload, name) in claims
        if not row["within_bound"]:
            problems.append(f"{where}: {name} worse than its bound")
        if row["claimed"] and not row["gain"]:
            problems.append(f"{where}: claimed {name} gain not shown")
    print(render(where, rows))
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="base revision (default HEAD~1)")
    parser.add_argument(
        "--workload", action="append", choices=names, help="repeatable; default all"
    )
    parser.add_argument("--seed", action="append", type=int, help="repeatable; default 0")
    parser.add_argument("--pairs", type=int, default=5, help="pairs per workload and seed")
    parser.add_argument("--aa", action="store_true", help="the change tree against itself")
    parser.add_argument("--digests", action="store_true", help="identity only, no timing")
    parser.add_argument(
        "--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
        help="a claimed gain to check (repeatable)",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or names
    seeds = args.seed or [0]
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.digests and args.claim:
        parser.error("--digests checks identity only; a --claim needs timed pairs")
    declared = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    try:
        claims = parse_claims(args.claim, workloads, list(declared))
    except ValueError as exc:
        parser.error(str(exc))
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = max(1, min(2, cores or 1))
    problems: List[str] = []
    with tempfile.TemporaryDirectory(prefix="paired-") as scratch:
        trees = (ROOT if args.aa else archive(args.base, scratch), ROOT)
        if args.aa:
            print(f"A/A: working tree against itself; {jobs} concurrent process(es)")
        else:
            print(f"base {args.base} vs working tree; {jobs} concurrent process(es)")
        for workload in workloads:
            for seed in seeds:
                if args.digests:
                    problems += digest_pass(trees, jobs, workload, seed)
                else:
                    problems += timing_pass(
                        trees, jobs, workload, seed, args.pairs, declared, claims
                    )
    for problem in problems:
        print(f"  - {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
