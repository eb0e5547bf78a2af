"""Ablation: the horizontal-sliver half-width ε.

The paper fixes ε = 0.1 ("our experiments find that using ε = 0.1
suffices").  This sweep shows the tradeoff that choice sits on: small ε
shrinks HS lists but fragments the availability bands; large ε inflates
state per node for no connectivity benefit.
"""

import numpy as np

from repro.churn.overnet import sample_availabilities
from repro.core.availability import AvailabilityPdf
from repro.core.ids import make_node_ids
from repro.core.predicates import NodeDescriptor, paper_predicate
from repro.experiments.report import format_table
from repro.overlays.graphs import band_connectivity, build_overlay, sliver_sizes

POPULATION = 600
EPSILONS = (0.02, 0.05, 0.1, 0.2, 0.3)


def run_sweep():
    rng = np.random.default_rng(1)
    ids = make_node_ids(POPULATION)
    avs = sample_availabilities(POPULATION, rng)
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    descriptors = [NodeDescriptor(n, float(a)) for n, a in zip(ids, avs)]
    rows = []
    for epsilon in EPSILONS:
        predicate = paper_predicate(pdf, epsilon=epsilon)
        graph = build_overlay(descriptors, predicate)
        sizes = sliver_sizes(graph)
        hs_mean = float(np.mean([v[0] for v in sizes.values()]))
        vs_mean = float(np.mean([v[1] for v in sizes.values()]))
        connected = sum(
            band_connectivity(graph, c - epsilon, c + epsilon)
            for c in (0.2, 0.5, 0.8)
        )
        rows.append([epsilon, hs_mean, vs_mean, f"{connected}/3"])
    return rows


def test_ablation_epsilon(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print()
    print(format_table(["epsilon", "hs_mean", "vs_mean", "bands_connected"], rows))
    assert len(rows) == len(EPSILONS)
    # HS state grows with epsilon.
    hs_means = [row[1] for row in rows]
    assert hs_means[-1] > hs_means[0]
