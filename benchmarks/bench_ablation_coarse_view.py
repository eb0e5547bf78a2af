"""Ablation: coarse-view size and the Section 3.1 v = √N optimality.

The analysis: per-node cost scales with the view size ``v`` while the
expected time for a given peer to surface in the view scales with
``N/v`` periods — so ``f(v) = v + N/v`` is minimized at ``v = √N``.
This bench measures actual discovery progress (fraction of a node's
predicate neighborhood found after a fixed number of discovery rounds)
for several view sizes and reports the combined cost alongside.
"""

import numpy as np

from repro.churn.trace import ChurnTrace
from repro.core.availability import AvailabilityPdf
from repro.core.config import AvmemConfig
from repro.core.ids import make_node_ids
from repro.core.node import AvmemNode
from repro.core.population import Population
from repro.core.predicates import NodeDescriptor, paper_predicate
from repro.experiments.report import format_table
from repro.monitor.cache import CachedAvailabilityView
from repro.monitor.coarse_view import GlobalSampleView
from repro.monitor.oracle import OracleAvailability
from repro.sim.engine import Simulator
from repro.sim.network import Network

POPULATION = 400
ROUNDS = 25
VIEW_SIZES = (5, 10, 20, 40, 80)


def _discovery_progress(view_size: int, seed: int = 0) -> float:
    """Fraction of its true predicate neighborhood one node discovers in
    ROUNDS discovery rounds with the given view size."""
    rng = np.random.default_rng(seed)
    ids = make_node_ids(POPULATION)
    sessions = {node: [(0.0, 1e9)] for node in ids}
    trace = ChurnTrace.from_intervals(sessions, horizon=1e9)
    sim = Simulator()
    network = Network(sim, presence=trace, rng=rng)
    avs = rng.uniform(0.05, 0.95, POPULATION)
    population = Population.from_ids(ids, avs)
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    predicate = paper_predicate(pdf)

    class Fixed:
        def query(self, row):
            return float(avs[row])

        def query_array(self, rows):
            return avs[rows]

    service = Fixed()
    coarse = GlobalSampleView(
        sim, ids, view_size, rng=rng, presence=trace, period=60.0, stale_fraction=0.0
    )
    node = AvmemNode(
        sim, network, predicate, AvmemConfig(),
        CachedAvailabilityView(service, sim, population), coarse, rng=rng,
        population=population, row=0,
    )
    me = NodeDescriptor(ids[0], service.query(0))
    truth = sum(
        1
        for row, other in enumerate(ids[1:], start=1)
        if predicate.evaluate(me, NodeDescriptor(other, service.query(row)))
    )
    if truth == 0:
        return float("nan")
    for _ in range(ROUNDS):
        node.discovery_step()
        sim.run_until(sim.now + 60.0)
    return node.lists.total_count / truth


def run_sweep():
    rows = []
    for view_size in VIEW_SIZES:
        progress = np.mean([_discovery_progress(view_size, seed) for seed in (0, 1)])
        combined_cost = view_size + POPULATION / view_size
        rows.append([view_size, round(float(progress), 3), round(combined_cost, 1)])
    return rows


def test_ablation_coarse_view(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print()
    print(format_table(["view_size", "discovered_fraction", "v + N/v"], rows))
    progresses = [row[1] for row in rows]
    assert progresses[-1] > progresses[0]  # bigger views discover faster
    # The analytic cost is minimized at v = sqrt(N) = 20 for N = 400.
    costs = [row[2] for row in rows]
    assert min(costs) == costs[VIEW_SIZES.index(20)]
