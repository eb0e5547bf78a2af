"""Smoke test of the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``.

Runs all four workloads at ``--smoke`` sizes (N <= 300), untraced and
traced, through the same ``--one`` command ``BENCHMARK.json`` names, and
checks the contract between ``BENCHMARK.json`` and what a run emits.
Not part of tier-1 (``pytest.ini`` keeps ``testpaths = tests``).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _no_duplicate_keys(pairs):
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"metric emitted more than once: {keys}"
    return dict(pairs)


def _one(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [*BENCHMARK["command"], "--smoke", "--workload", workload, "--seed", "0",
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=_no_duplicate_keys)


@pytest.fixture(scope="module")
def smoke_runs():
    started = time.perf_counter()
    runs = {(w, trace): _one(w, trace) for w in WORKLOADS for trace in (0, 1)}
    return runs, time.perf_counter() - started


def test_benchmark_json_is_within_the_contract_limits():
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_all_workloads_run_in_under_30_seconds(smoke_runs):
    runs, elapsed = smoke_runs
    assert elapsed < 30.0
    for (workload, trace), run in runs.items():
        assert run["correct"] is True and run["failed"] == 0, (workload, trace)
        assert run["attempted"] >= 1


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_exactly_once(smoke_runs, trace, section):
    runs, _ = smoke_runs
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for workload in WORKLOADS:
        emitted = runs[(workload, trace)]["metrics"]
        assert sorted(emitted) == sorted(declared), workload
        assert all(emitted[name]["unit"] == unit for name, unit in declared.items())
        if section == "end_to_end":
            assert all(m["value"] != 0 for m in emitted.values()), workload


def test_traced_run_accounts_for_the_wall_clock(smoke_runs):
    for workload in WORKLOADS:
        path = os.path.join(HERE, "results", f"trace_{workload}.smoke.json")
        with open(path, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
        self_total = sum(total["self_s"] for total in trace["totals"].values())
        assert self_total <= trace["wall_s"] * 1.0001, workload
        assert trace["coverage"] >= 0.90, workload
        ids = {span["id"] for span in trace["spans"]}
        assert all({"name", "layer", "start", "end", "parent"} <= set(s) for s in trace["spans"])
        assert any(span["parent"] in ids for span in trace["spans"]), workload
