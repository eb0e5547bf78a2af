"""Property-based tests on operation invariants (hypothesis).

Random small systems and random operations; the invariants checked are
the ones every figure implicitly relies on:

* anycasts always reach a terminal status once the system settles;
* hop counts never exceed the TTL budget;
* multicast deliveries are a subset of the population, each at most once;
* retried-greedy never uses more retries than its budget.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.churn.trace import ChurnTrace
from repro.core.availability import AvailabilityPdf
from repro.core.config import AvmemConfig
from repro.core.ids import make_node_ids
from repro.core.predicates import random_overlay_predicate
from repro.monitor.coarse_view import GlobalSampleView
from repro.ops.results import AnycastStatus
from repro.ops.spec import TargetSpec
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network

from conftest import bootstrap_all, row_engine, row_nodes


def build_random_system(avs, offline_mask, seed):
    rng = np.random.default_rng(seed)
    n = len(avs)
    ids = make_node_ids(n)
    sessions = {
        node: [] if offline else [(0.0, 1e9)]
        for node, offline in zip(ids, offline_mask)
    }
    trace = ChurnTrace.from_intervals(sessions, horizon=1e9)
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.04), presence=trace, rng=rng)
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    predicate = random_overlay_predicate(pdf, probability=0.6)
    coarse = GlobalSampleView(sim, ids, max(1, n - 1), rng=rng, presence=trace)
    config = AvmemConfig()
    population, service, nodes = row_nodes(
        sim, network, predicate, config, coarse, ids, avs, rng=rng
    )
    engine = row_engine(sim, network, nodes, config, population, service, rng=rng)
    bootstrap_all(nodes, service)
    return sim, nodes, engine, ids


system_strategy = st.tuples(
    st.lists(st.floats(0.05, 0.95), min_size=4, max_size=16),
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 0.9),   # target lo
    st.floats(0.02, 0.1),  # target width
    st.sampled_from(["greedy", "retry-greedy", "anneal"]),
    st.sampled_from(["hs", "vs", "hs+vs"]),
)


@given(params=system_strategy)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_anycast_invariants(params):
    avs, seed, lo, width, policy, selector = params
    rng = np.random.default_rng(seed)
    offline_mask = rng.random(len(avs)) < 0.3
    offline_mask[0] = False  # keep the initiator alive
    sim, nodes, engine, ids = build_random_system(avs, offline_mask, seed)
    target = TargetSpec.range(lo, min(1.0, lo + width))
    ttl = int(rng.integers(1, 8))
    retry = int(rng.integers(1, 6))
    record = engine.anycast(
        ids[0], target, policy=policy, selector=selector, ttl=ttl, retry=retry
    )
    sim.run_until(sim.now + 30.0)
    record.finalize()
    # 1. Terminal status.
    assert record.status in AnycastStatus.TERMINAL
    # 2. Hop budget respected.
    if record.hops is not None:
        assert 0 <= record.hops <= ttl
    # 3. Delivery implies a node that believed itself in range.
    if record.delivered:
        assert record.delivery_node in nodes
        assert record.delivered_at >= record.started_at
    # 4. Retry budget respected.
    assert record.retries_used <= retry


@given(params=system_strategy)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_multicast_invariants(params):
    avs, seed, lo, width, _, selector = params
    rng = np.random.default_rng(seed)
    offline_mask = rng.random(len(avs)) < 0.2
    offline_mask[0] = False
    sim, nodes, engine, ids = build_random_system(avs, offline_mask, seed)
    target = TargetSpec.range(lo, min(1.0, lo + width))
    mode = "flood" if seed % 2 == 0 else "gossip"
    record = engine.multicast(ids[0], target, mode=mode, selector=selector)
    sim.run_until(sim.now + 30.0)
    population = set(ids)
    # 1. Deliveries and spam stay inside the population; no overlap.
    assert set(record.deliveries) <= population
    spam_nodes = {node for node, _ in record.spam}
    assert spam_nodes <= population
    assert not (spam_nodes & set(record.deliveries))
    # 2. Delivery timestamps never precede the start.
    for when in record.deliveries.values():
        assert when >= record.started_at
    # 3. Reliability and spam ratio are consistent with the raw sets.
    if record.eligible:
        expected = sum(1 for n in record.deliveries if n in record.eligible) / len(
            record.eligible
        )
        assert record.reliability() == pytest.approx(expected)
    # 4. Eligible nodes were online and truly in range at start.
    for node in record.eligible:
        assert target.contains(engine.truth_by_row(engine.nodes[node].row))
