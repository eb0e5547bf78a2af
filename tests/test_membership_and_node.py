"""Unit tests for membership lists and the AVMEM node protocols."""

import numpy as np
import pytest

from repro.churn.trace import ChurnTrace, NodeSchedule
from repro.core.availability import AvailabilityPdf
from repro.core.config import AvmemConfig
from repro.core.ids import make_node_ids
from repro.core.membership import MembershipTable, SliverSelector
from repro.core.node import AvmemNode
from repro.core.predicates import NodeDescriptor, SliverKind, paper_predicate
from repro.monitor.cache import CachedAvailabilityView
from repro.monitor.coarse_view import GlobalSampleView
from repro.monitor.oracle import OracleAvailability
from repro.sim.engine import Simulator
from repro.sim.network import Network


class TestMembershipLists:
    @pytest.fixture
    def lists(self):
        ids = make_node_ids(10)
        return MembershipTable(ids[0]), ids

    def test_upsert_and_lookup(self, lists):
        table, ids = lists
        entry = table.upsert(ids[1], 0.5, SliverKind.HORIZONTAL, now=10.0)
        assert ids[1] in table
        assert table.get(ids[1]) is entry
        assert table.horizontal_count == 1
        assert table.vertical_count == 0

    def test_upsert_moves_between_slivers(self, lists):
        table, ids = lists
        table.upsert(ids[1], 0.5, SliverKind.HORIZONTAL, now=0.0)
        table.upsert(ids[1], 0.9, SliverKind.VERTICAL, now=5.0)
        assert table.horizontal_count == 0
        assert table.vertical_count == 1
        entry = table.get(ids[1])
        assert entry.availability == 0.9
        assert entry.added_at == 0.0  # original insertion preserved
        assert entry.checked_at == 5.0

    def test_self_neighbor_rejected(self, lists):
        table, ids = lists
        with pytest.raises(ValueError):
            table.upsert(ids[0], 0.5, SliverKind.HORIZONTAL, now=0.0)

    def test_remove(self, lists):
        table, ids = lists
        table.upsert(ids[1], 0.5, SliverKind.VERTICAL, now=0.0)
        assert table.remove(ids[1])
        assert not table.remove(ids[1])
        assert table.total_count == 0

    def test_selector_filters(self, lists):
        table, ids = lists
        table.upsert(ids[1], 0.5, SliverKind.HORIZONTAL, now=0.0)
        table.upsert(ids[2], 0.9, SliverKind.VERTICAL, now=0.0)
        assert table.neighbor_ids(SliverSelector.HS_ONLY) == [ids[1]]
        assert table.neighbor_ids(SliverSelector.VS_ONLY) == [ids[2]]
        assert set(table.neighbor_ids(SliverSelector.BOTH)) == {ids[1], ids[2]}

    def test_invalid_selector_rejected(self, lists):
        table, _ = lists
        with pytest.raises(ValueError):
            table.entries("everything")

    def test_clear(self, lists):
        table, ids = lists
        table.upsert(ids[1], 0.5, SliverKind.HORIZONTAL, now=0.0)
        table.clear()
        assert table.total_count == 0


@pytest.fixture
def wired_system(rng):
    """A small fully-wired system: 80 nodes, static presence split."""
    ids = make_node_ids(80)
    # First 60 always online; last 20 never online.
    schedules = {
        node: NodeSchedule([(0.0, 1e6)] if i < 60 else [])
        for i, node in enumerate(ids)
    }
    trace = ChurnTrace(schedules, horizon=1e6)
    sim = Simulator()
    network = Network(sim, presence=trace, rng=rng)
    oracle = OracleAvailability(trace, sim)
    avs = list(np.linspace(0.05, 0.95, 80))
    pdf = AvailabilityPdf.from_samples(avs, n_star=60.0)
    predicate = paper_predicate(pdf)
    coarse = GlobalSampleView(sim, ids, view_size=25, rng=rng, presence=trace)
    config = AvmemConfig()
    nodes = {}
    for node_id in ids:
        cache = CachedAvailabilityView(oracle, sim)
        nodes[node_id] = AvmemNode(
            node_id, sim, network, predicate, config, cache, coarse, rng=rng
        )
    return sim, trace, network, nodes, ids, predicate


class TestDiscovery:
    def test_discovery_adds_predicate_matches_only(self, wired_system):
        sim, trace, network, nodes, ids, predicate = wired_system
        sim.run_until(3600.0)  # availabilities well-defined
        node = nodes[ids[0]]
        node.discovery_step()
        me = node.self_descriptor()
        for entry in node.lists.all_entries():
            candidate = NodeDescriptor(entry.node, entry.availability)
            assert predicate.evaluate(me, candidate)

    def test_discovery_skips_offline_candidates(self, wired_system):
        sim, trace, network, nodes, ids, _ = wired_system
        sim.run_until(3600.0)
        node = nodes[ids[0]]
        for _ in range(30):
            node.discovery_step()
            sim.run_until(sim.now + 60.0)
        offline = set(ids[60:])
        assert not (set(node.lists.neighbor_ids()) & offline)

    def test_offline_node_skips_discovery(self, wired_system):
        sim, _, _, nodes, ids, _ = wired_system
        offline_node = nodes[ids[70]]
        assert offline_node.discovery_step() == 0
        assert offline_node.discovery_rounds == 0

    def test_discovery_accumulates_over_rounds(self, wired_system):
        sim, _, _, nodes, ids, _ = wired_system
        sim.run_until(3600.0)
        node = nodes[ids[30]]
        node.discovery_step()
        first = node.lists.total_count
        for _ in range(20):
            sim.run_until(sim.now + 60.0)
            node.discovery_step()
        assert node.lists.total_count >= first


class TestRefresh:
    def test_refresh_updates_cached_availability(self, wired_system):
        sim, _, _, nodes, ids, _ = wired_system
        sim.run_until(3600.0)
        node = nodes[ids[0]]
        node.discovery_step()
        entries_before = {e.node: e.checked_at for e in node.lists.all_entries()}
        sim.run_until(sim.now + 1200.0)
        node.refresh_step()
        for entry in node.lists.all_entries():
            if entry.node in entries_before:
                assert entry.checked_at > entries_before[entry.node]

    def test_refresh_prunes_offline_neighbors(self, rng):
        ids = make_node_ids(30)
        # Node 1..20 online only until t=5000.
        schedules = {ids[0]: NodeSchedule([(0.0, 1e6)])}
        for node in ids[1:21]:
            schedules[node] = NodeSchedule([(0.0, 5000.0)])
        for node in ids[21:]:
            schedules[node] = NodeSchedule([(0.0, 1e6)])
        trace = ChurnTrace(schedules, horizon=1e6)
        sim = Simulator()
        network = Network(sim, presence=trace, rng=rng)
        oracle = OracleAvailability(trace, sim)
        pdf = AvailabilityPdf.uniform(n_star=30.0)
        predicate = paper_predicate(pdf)
        coarse = GlobalSampleView(sim, ids, 29, rng=rng, presence=trace, stale_fraction=0.0)
        node = AvmemNode(
            ids[0], sim, network, predicate, AvmemConfig(),
            CachedAvailabilityView(oracle, sim), coarse, rng=rng,
        )
        sim.run_until(2000.0)
        node.discovery_step()
        had_doomed = any(e.node in set(ids[1:21]) for e in node.lists.all_entries())
        sim.run_until(6000.0)  # ids[1:21] now offline
        node.refresh_step()
        doomed = set(ids[1:21])
        assert had_doomed
        assert not (set(node.lists.neighbor_ids()) & doomed)

    def test_refresh_skipped_while_offline(self, wired_system):
        _, _, _, nodes, ids, _ = wired_system
        assert nodes[ids[75]].refresh_step() == 0


class TestBootstrapAndLifecycle:
    def test_bootstrap_matches_discovery_semantics(self, wired_system):
        sim, _, _, nodes, ids, predicate = wired_system
        sim.run_until(3600.0)
        node = nodes[ids[5]]
        candidates = [
            NodeDescriptor(other, node.availability._service.query(other))
            for other in ids
            if other != ids[5]
        ]
        added = node.bootstrap_from(candidates)
        assert added == node.lists.total_count
        me = node.self_descriptor()
        for candidate in candidates:
            expected = predicate.evaluate_kind(me, candidate)
            if expected is None:
                assert candidate.node not in node.lists
            else:
                assert node.lists.get(candidate.node).kind is expected

    def test_start_twice_rejected(self, wired_system):
        _, _, _, nodes, ids, _ = wired_system
        node = nodes[ids[0]]
        node.start()
        with pytest.raises(RuntimeError):
            node.start()
        node.stop()

    def test_periodic_protocols_run(self, wired_system):
        sim, _, _, nodes, ids, _ = wired_system
        node = nodes[ids[0]]
        node.start(stagger=False)
        sim.run_until(3700.0)
        assert node.discovery_rounds >= 60
        assert node.refresh_rounds >= 3
        node.stop()
        rounds = node.discovery_rounds
        sim.run_until(7200.0)
        assert node.discovery_rounds == rounds


class TestMessaging:
    def test_handler_dispatch_by_type(self, wired_system):
        sim, _, _, nodes, ids, _ = wired_system
        received = []
        nodes[ids[1]].register_handler(str, lambda node, env: received.append(env.payload))
        nodes[ids[0]].send(ids[1], "hello")
        sim.run()
        assert received == ["hello"]

    def test_unregistered_payload_ignored(self, wired_system):
        sim, _, _, nodes, ids, _ = wired_system
        nodes[ids[0]].send(ids[1], 3.14)  # no float handler anywhere
        sim.run()  # must not raise

    def test_duplicate_handler_rejected(self, wired_system):
        _, _, _, nodes, ids, _ = wired_system
        nodes[ids[2]].register_handler(str, lambda node, env: None)
        with pytest.raises(ValueError):
            nodes[ids[2]].register_handler(str, lambda node, env: None)

    def test_send_from_offline_node_fails(self, wired_system):
        _, _, _, nodes, ids, _ = wired_system
        assert not nodes[ids[70]].send(ids[0], "x")
