"""Convergence of the maintenance protocols to the predicate graph.

The consistency property means the overlay a node *should* have is a
pure function of (ids, availabilities).  With a static population and
fixed availability answers, discovery must converge to exactly that
neighborhood — no more (refresh would evict), no less (coverage of the
coarse view), in roughly N/v discovery periods (Section 3.1).
"""

import numpy as np
import pytest

from repro.churn.trace import ChurnTrace
from repro.core.availability import AvailabilityPdf
from repro.core.config import AvmemConfig
from repro.core.ids import make_node_ids
from repro.core.predicates import NodeDescriptor, paper_predicate
from repro.monitor.coarse_view import GlobalSampleView
from repro.sim.engine import Simulator
from repro.sim.network import Network

from conftest import row_nodes


@pytest.fixture(scope="module")
def static_system():
    """120 always-online nodes with fixed availability answers."""
    rng = np.random.default_rng(31)
    ids = make_node_ids(120)
    sessions = {node: [(0.0, 1e9)] for node in ids}
    trace = ChurnTrace.from_intervals(sessions, horizon=1e9)
    sim = Simulator()
    network = Network(sim, presence=trace, rng=rng)
    avs = rng.uniform(0.05, 0.95, 120)
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    predicate = paper_predicate(pdf)
    coarse = GlobalSampleView(
        sim, ids, view_size=12, rng=rng, presence=trace, period=60.0,
        stale_fraction=0.0,
    )
    _, service, nodes = row_nodes(
        sim, network, predicate, AvmemConfig(), coarse, ids, avs, rng=rng
    )
    # Run discovery for ~4x the expected N/v coverage time.
    rounds = 4 * (120 // 12)
    for _ in range(rounds):
        for node in nodes.values():
            node.discovery_step()
        sim.run_until(sim.now + 60.0)
    def truth_neighborhood(node_id):
        row = ids.index(node_id)
        me = NodeDescriptor(node_id, service.query(row))
        return {
            other
            for other_row, other in enumerate(ids)
            if other_row != row
            and predicate.evaluate(me, NodeDescriptor(other, service.query(other_row)))
        }
    return nodes, ids, truth_neighborhood


class TestDiscoveryConvergence:
    def test_no_false_members(self, static_system):
        """Everything discovered genuinely satisfies the predicate."""
        nodes, ids, truth = static_system
        for node_id in ids[:40]:
            expected = truth(node_id)
            actual = set(nodes[node_id].lists.neighbor_ids())
            assert actual <= expected, node_id

    def test_high_coverage(self, static_system):
        """Discovery finds (nearly) the whole predicate neighborhood."""
        nodes, ids, truth = static_system
        coverages = []
        for node_id in ids:
            expected = truth(node_id)
            if not expected:
                continue
            actual = set(nodes[node_id].lists.neighbor_ids())
            coverages.append(len(actual & expected) / len(expected))
        assert np.mean(coverages) > 0.9

    def test_refresh_is_stable_at_convergence(self, static_system):
        """With static availabilities, refresh evicts nothing."""
        nodes, ids, _ = static_system
        for node_id in ids[:30]:
            assert nodes[node_id].refresh_step() == 0

    def test_sliver_classification_correct(self, static_system):
        nodes, ids, _ = static_system
        node = nodes[ids[0]]
        me_av = node.self_descriptor().availability
        for entry in node.lists.horizontal:
            assert abs(entry.availability - me_av) < node.predicate.epsilon
        for entry in node.lists.vertical:
            assert abs(entry.availability - me_av) >= node.predicate.epsilon
