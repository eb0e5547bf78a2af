"""Scenario timeline + batched-oracle scaling sweep.

Two families of timings, swept over N ∈ {1k, 5k, 20k} (override with
``--sizes``) on a compiled ``pareto-heavy-tail`` scenario timeline:

* **Timeline queries** — population availability at one instant:
  per-node scalar :meth:`~repro.churn.trace.ChurnTrace.availability`
  loop (one bisect chain per node, the seed shape) vs one vectorized
  :meth:`~repro.churn.trace.ChurnTrace.availability_array` call through
  the columnar :class:`~repro.churn.timeline.ChurnTimeline`.

* **Refresh rounds through the oracle** — the protocol hot path (refresh
  rounds once queried the availability oracle per neighbor).  Every node
  refreshes its ``--neighbors`` cached availabilities:

  - ``seed``    — the seed per-neighbor path, preserved verbatim as
    :class:`SeedOracleAvailability` (the same convention
    ``bench_overlay_scale.py`` uses for the seed membership tables):
    one scalar ``query`` per neighbor with per-``(node, bucket)``
    Gaussian noise draws;
  - ``scalar``  — one *current* scalar
    :meth:`~repro.monitor.oracle.OracleAvailability.query` per neighbor
    (modernized noise, still per-neighbor — isolates the batching win);
  - ``batched`` — the current
    :meth:`~repro.monitor.cache.CachedAvailabilityView.fetch_rows`:
    one :meth:`~repro.monitor.oracle.OracleAvailability.query_array`
    per owner over the neighbors' rows, answered by one vectorized
    timeline pass.

Per-entry parity is asserted on every run: batched answers must match
the current scalar path (same oracle, noise on), and with noise
disabled the seed path, the batched path, and ``ChurnTrace`` ground
truth must agree entry for entry.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_scenarios.py
    PYTHONPATH=src python benchmarks/bench_scenarios.py --sizes 1000 5000

Acceptance bar: ≥ 3× batched-over-scalar refresh-round speedup at
N = 20k (asserted whenever the sweep includes N ≥ 20000).  Results are
also written to ``benchmarks/results/BENCH_scenarios.json``
(:mod:`bench_util`).
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

import numpy as np

from repro.churn.trace import ChurnTrace
from repro.core.ids import make_node_ids
from repro.core.population import Population
from repro.monitor.cache import CachedAvailabilityView
from repro.monitor.oracle import OracleAvailability
from repro.scenarios.registry import get_scenario
from repro.sim.engine import Simulator
from repro.util.randomness import derive_seed

from bench_util import emit_bench_json

DEFAULT_SIZES = (1_000, 5_000, 20_000)
SCENARIO = "pareto-heavy-tail"
EPOCHS = 96
EPOCH_SECONDS = 1200.0
WINDOW = 86_400.0


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def build_trace(n: int, seed: int) -> ChurnTrace:
    compiled = get_scenario(SCENARIO).compile(
        hosts=n, epochs=EPOCHS, epoch_seconds=EPOCH_SECONDS, seed=seed
    )
    return compiled.to_trace(make_node_ids(n))


class SeedOracleAvailability:
    """The seed oracle, preserved verbatim as the benchmark baseline.

    Scalar queries with *per-(node, time-bucket)* noise draws — a fresh
    ``default_rng`` per cache miss — exactly the per-neighbor path
    ``AvmemNode.refresh_step`` paid before the timeline batch API."""

    def __init__(self, trace, sim, window=None, noise_std=0.0,
                 quantization=0.0, noise_bucket=1200.0, seed=0):
        self.trace = trace
        self.sim = sim
        self.window = window
        self.noise_std = noise_std
        self.quantization = quantization
        self.noise_bucket = noise_bucket
        self._seed = int(seed)
        self._noise_cache: dict = {}

    def query(self, node) -> float:
        if node not in self.trace:
            raise KeyError(f"unknown node {node!r}")
        now = self.sim.now
        if self.window is None:
            value = self.trace.availability(node, now)
        else:
            value = self.trace.windowed_availability(node, now, self.window)
        if self.noise_std > 0.0:
            value += self._noise(node, now)
        if self.quantization > 0.0:
            value = round(value / self.quantization) * self.quantization
        return float(min(1.0, max(0.0, value)))

    def _noise(self, node, now: float) -> float:
        bucket = int(now / self.noise_bucket)
        key = (node, bucket)
        cached = self._noise_cache.get(key)
        if cached is None:
            rng = np.random.default_rng(
                derive_seed(self._seed, f"oracle-noise:{node.endpoint}:{bucket}")
            )
            cached = float(rng.normal(0.0, self.noise_std))
            if len(self._noise_cache) > 200_000:
                self._noise_cache.clear()
            self._noise_cache[key] = cached
        return cached


def scalar_fetch_array(view: CachedAvailabilityView, nodes) -> np.ndarray:
    """One scalar service query per neighbor, by id (the seed shape)."""
    return np.fromiter(
        (view.fetch(node) for node in nodes), dtype=float, count=len(nodes)
    )


def refresh_round(views, neighbor_lists, fetch) -> List[np.ndarray]:
    return [fetch(view, nodes) for view, nodes in zip(views, neighbor_lists)]


def sweep_size(n: int, seed: int, neighbors: int) -> Dict[str, object]:
    trace = build_trace(n, seed)
    nodes = list(trace.nodes)
    t = 0.6 * trace.horizon

    # -- timeline queries: population availability at one instant -------
    scalar_av, scalar_s = timed(
        lambda: np.array([trace.availability(node, t) for node in nodes])
    )
    batch_av, batch_s = timed(trace.availability_array, nodes, t)
    assert np.allclose(scalar_av, batch_av, rtol=0.0, atol=1e-9), (
        "timeline availability parity violated"
    )

    # -- refresh rounds through the oracle ------------------------------
    sim = Simulator()
    sim.run_until(t)
    rng = np.random.default_rng(seed)
    neighbor_rows = [
        rng.choice(n, size=min(neighbors, n), replace=False) for _ in range(n)
    ]
    neighbor_lists = [[nodes[j] for j in rows] for rows in neighbor_rows]
    population = Population.from_ids(nodes, np.zeros(n))
    oracle = OracleAvailability(trace, sim, window=WINDOW, noise_std=0.02, seed=seed)
    seed_oracle = SeedOracleAvailability(
        trace, sim, window=WINDOW, noise_std=0.02, seed=seed
    )
    seed_views = [CachedAvailabilityView(seed_oracle, sim, population) for _ in range(n)]
    scalar_views = [CachedAvailabilityView(oracle, sim, population) for _ in range(n)]
    batch_views = [CachedAvailabilityView(oracle, sim, population) for _ in range(n)]
    _, refr_seed_s = timed(
        refresh_round, seed_views, neighbor_lists, scalar_fetch_array
    )
    scalar_vals, refr_scalar_s = timed(
        refresh_round, scalar_views, neighbor_lists, scalar_fetch_array
    )
    batch_vals, refr_batch_s = timed(
        refresh_round, batch_views, neighbor_rows,
        CachedAvailabilityView.fetch_rows,
    )
    for row_scalar, row_batch in zip(scalar_vals, batch_vals):
        assert np.allclose(row_scalar, row_batch, rtol=0.0, atol=1e-9), (
            "scalar/batched refresh fetch parity violated"
        )

    # -- ground truth: noise off, every path must equal the trace -------
    exact = OracleAvailability(trace, sim, window=WINDOW, noise_std=0.0)
    exact_seed = SeedOracleAvailability(trace, sim, window=WINDOW, noise_std=0.0)
    exact_view = CachedAvailabilityView(exact, sim, population)
    probe = neighbor_lists[0]
    truth = np.array(
        [trace.windowed_availability(node, sim.now, WINDOW) for node in probe]
    )
    assert np.allclose(exact_view.fetch_rows(neighbor_rows[0]), truth, rtol=0.0, atol=1e-9), (
        "batched oracle diverges from ChurnTrace ground truth"
    )
    assert np.allclose(
        np.array([exact.query(node) for node in probe]), truth, rtol=0.0, atol=1e-9
    ), "scalar oracle diverges from ChurnTrace ground truth"
    assert np.allclose(
        np.array([exact_seed.query(node) for node in probe]), truth,
        rtol=0.0, atol=1e-9,
    ), "seed oracle diverges from ChurnTrace ground truth"

    return {
        "n": n,
        "sessions": trace.timeline.session_count,
        "neighbors_per_node": min(neighbors, n),
        "timeline_scalar_s": scalar_s,
        "timeline_batch_s": batch_s,
        "timeline_speedup": scalar_s / batch_s,
        "refresh_seed_s": refr_seed_s,
        "refresh_scalar_s": refr_scalar_s,
        "refresh_batch_s": refr_batch_s,
        "refresh_speedup": refr_seed_s / refr_batch_s,
        "refresh_speedup_vs_modern_scalar": refr_scalar_s / refr_batch_s,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="population sizes to sweep",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--neighbors", type=int, default=64,
        help="cached neighbors refreshed per node per round",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="result path (default: benchmarks/results/BENCH_scenarios.json)",
    )
    args = parser.parse_args(argv)

    print(
        f"scenario={SCENARIO}  epochs={EPOCHS}  window={WINDOW:.0f}s  "
        f"neighbors/node={args.neighbors}"
    )
    print(
        f"{'N':>8} {'tl_scalar':>10} {'tl_batch':>9} {'tl_x':>7} "
        f"{'refr_seed':>10} {'refr_scalar':>12} {'refr_batch':>11} "
        f"{'refr_x':>7} {'sessions':>9}"
    )
    rows = []
    for n in args.sizes:
        row = sweep_size(n, args.seed, args.neighbors)
        rows.append(row)
        print(
            f"{row['n']:>8} {row['timeline_scalar_s']:10.3f} "
            f"{row['timeline_batch_s']:9.3f} {row['timeline_speedup']:6.1f}x "
            f"{row['refresh_seed_s']:10.3f} {row['refresh_scalar_s']:12.3f} "
            f"{row['refresh_batch_s']:11.3f} "
            f"{row['refresh_speedup']:6.1f}x {row['sessions']:>9}"
        )
    emit_bench_json(
        "scenarios",
        {
            "scenario": SCENARIO,
            "epochs": EPOCHS,
            "window_seconds": WINDOW,
            "neighbors_per_node": args.neighbors,
            "seed": args.seed,
            "results": rows,
        },
        path=args.json_out,
    )
    for row in rows:
        if row["n"] >= 20_000:
            assert row["refresh_speedup"] >= 3.0, (
                f"acceptance bar missed: {row['refresh_speedup']:.1f}x "
                f"batched refresh speedup at N={row['n']} (need >= 3x)"
            )
            print(
                f"acceptance OK: {row['refresh_speedup']:.1f}x batched refresh "
                f"speedup at N={row['n']} (bar: 3x)"
            )


if __name__ == "__main__":
    main()
