"""Ablation: the shuffling-membership substrate.

The paper lists SCAMP, CYCLON, T-MAN, LOCKSS, and AVMON's coarse view as
interchangeable substrates for discovery (Section 3.1).  This bench runs
AVMEM discovery over three of our implementations — the idealized global
sampler, the CYCLON-style coarse-view swapper, and faithful CYCLON with
aged entries — and compares discovery progress after a fixed number of
rounds, validating the "black box" claim.
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
from repro.monitor.coarse_view import GlobalSampleView, ShuffledCoarseView
from repro.overlays.cyclon import CyclonView
from repro.sim.engine import Simulator
from repro.sim.network import Network

POPULATION = 300
VIEW_SIZE = 18
ROUNDS = 30


def _run_with(make_provider, seed=0):
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

    provider, advance = make_provider(sim, ids, rng, trace)
    service = Fixed()
    probes = ids[:10]
    nodes = [
        AvmemNode(
            sim, network, predicate, AvmemConfig(),
            CachedAvailabilityView(service, sim, population), provider, rng=rng,
            population=population, row=row,
        )
        for row in range(len(probes))
    ]
    truths = []
    for probe_row, node_id in enumerate(probes):
        me = NodeDescriptor(node_id, service.query(probe_row))
        truths.append(
            sum(
                1
                for row, other in enumerate(ids)
                if row != probe_row
                and predicate.evaluate(me, NodeDescriptor(other, service.query(row)))
            )
        )
    for _ in range(ROUNDS):
        for node in nodes:
            node.discovery_step()
        advance()
        sim.run_until(sim.now + 60.0)
    fractions = [
        node.lists.total_count / truth if truth else float("nan")
        for node, truth in zip(nodes, truths)
    ]
    return float(np.nanmean(fractions))


def _global(sim, ids, rng, trace):
    provider = GlobalSampleView(
        sim, ids, VIEW_SIZE, rng=rng, presence=trace, stale_fraction=0.0
    )
    return provider, lambda: None


def _shuffled(sim, ids, rng, trace):
    provider = ShuffledCoarseView(
        sim, ids, VIEW_SIZE, rng=rng, presence=trace, start=False
    )
    return provider, provider.step


def _cyclon(sim, ids, rng, trace):
    provider = CyclonView(
        sim, ids, VIEW_SIZE, max(1, VIEW_SIZE // 2), rng=rng,
        presence=trace, start=False,
    )
    return provider, provider.step


def run_comparison():
    return [
        ["global-sample", _run_with(_global)],
        ["coarse-view swap", _run_with(_shuffled)],
        ["cyclon", _run_with(_cyclon)],
    ]


def test_ablation_shufflers(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print()
    print(format_table(["substrate", "discovered_fraction"], rows))
    # Every substrate must make real discovery progress — the "usable as
    # a black box" claim.
    for name, fraction in rows:
        assert fraction > 0.2, name
