"""Failure-injection tests: the system under hostile conditions.

Mass churn mid-operation, monitoring outages, pathological caches —
the reproduction must degrade the way a distributed system should
(losing messages, not raising exceptions or corrupting state).
"""

import numpy as np
import pytest

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


def build_mass_churn_system(n=40, die_at=1000.0, survivors=5, rng=None):
    """Everyone online from 0; all but ``survivors`` nodes die at
    ``die_at`` (a correlated failure / partition event)."""
    rng = rng if rng is not None else np.random.default_rng(3)
    ids = make_node_ids(n)
    sessions = {}
    for i, node in enumerate(ids):
        end = 1e9 if i < survivors else die_at
        sessions[node] = [(0.0, end)]
    trace = ChurnTrace.from_intervals(sessions, horizon=1e9)
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.05), presence=trace, rng=rng)
    avs = list(np.linspace(0.1, 0.95, n))
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    predicate = random_overlay_predicate(pdf, probability=1.0)
    coarse = GlobalSampleView(sim, ids, n - 1, rng=rng, presence=trace, stale_fraction=0.0)
    config = AvmemConfig()
    population, service, nodes = row_nodes(
        sim, network, predicate, config, coarse, ids, avs, rng=rng
    )
    engine = row_engine(sim, network, nodes, config, population, service, rng=rng)
    bootstrap_all(nodes, service)
    return sim, network, nodes, engine, ids, trace


class TestMassChurn:
    def test_anycast_during_mass_failure_terminates(self):
        sim, _, nodes, engine, ids, _ = build_mass_churn_system(die_at=1000.0)
        sim.run_until(999.9)  # operations launched just before the event
        records = [
            engine.anycast(ids[0], TargetSpec.range(0.9, 0.95), policy="retry-greedy")
            for _ in range(5)
        ]
        sim.run_until(1030.0)
        for record in records:  # the plan runner's per-record finalization
            record.finalize()
            assert record.status in AnycastStatus.TERMINAL

    def test_multicast_reliability_collapses_gracefully(self):
        sim, _, nodes, engine, ids, _ = build_mass_churn_system(
            die_at=1000.0, survivors=3
        )
        sim.run_until(999.5)
        record = engine.multicast(ids[0], TargetSpec.range(0.5, 1.0), mode="flood")
        sim.run_until(1030.0)
        # Eligibility was sampled pre-failure; deliveries mostly died.
        assert record.reliability() <= 1.0
        assert len(record.deliveries) <= len(record.eligible)

    def test_surviving_nodes_keep_operating(self):
        sim, _, nodes, engine, ids, _ = build_mass_churn_system(
            n=40, die_at=1000.0, survivors=8
        )
        sim.run_until(2000.0)
        for node in ids[:8]:
            nodes[node].refresh_step()  # prunes the dead
        record = engine.anycast(
            ids[0],
            TargetSpec.range(0.1, 0.3),  # survivors 0..7 span low avs
            policy="retry-greedy",
        )
        sim.run_until(2030.0)
        record.finalize()
        assert record.status in AnycastStatus.TERMINAL

    def test_refresh_prunes_all_dead_neighbors(self):
        sim, network, nodes, engine, ids, _ = build_mass_churn_system(
            survivors=5, die_at=1000.0
        )
        sim.run_until(2000.0)
        survivor = nodes[ids[0]]
        evicted = survivor.refresh_step()
        assert evicted >= 30  # all dead neighbors dropped in one round
        for entry in survivor.lists.all_entries():
            assert network.is_online(entry.node)


class TestMonitoringPathologies:
    def test_extreme_noise_still_bounded(self):
        """A broken monitoring service (huge noise) must still return
        availabilities in [0, 1]."""
        from repro.monitor.oracle import OracleAvailability

        ids = make_node_ids(5)
        sessions = {node: [(0.0, 1e6)] for node in ids}
        trace = ChurnTrace.from_intervals(sessions, horizon=1e6)
        sim = Simulator()
        sim.run_until(1000.0)
        oracle = OracleAvailability(trace, sim, noise_std=5.0, seed=2)
        for row in range(len(ids)):
            assert 0.0 <= oracle.query(row) <= 1.0

    def test_coarse_quantization_degrades_not_breaks(self):
        from repro.monitor.oracle import OracleAvailability

        ids = make_node_ids(5)
        sessions = {node: [(0.0, 500.0)] for node in ids}
        trace = ChurnTrace.from_intervals(sessions, horizon=1e6)
        sim = Simulator()
        sim.run_until(1000.0)
        oracle = OracleAvailability(trace, sim, quantization=0.5)
        assert oracle.query(0) in (0.0, 0.5, 1.0)

    def test_verifier_with_empty_system_cache(self):
        """Verification works from a cold cache (fetches on demand)."""
        sim, _, nodes, engine, ids, _ = build_mass_churn_system()
        verifier = nodes[ids[1]].verifier
        result = verifier.verify(ids[2])
        assert result.accepted in (True, False)
        assert 0.0 <= result.threshold <= 1.0


class TestGossipUnderChurn:
    def test_gossip_rounds_survive_node_death(self):
        """A gossiping node dying mid-rounds must not break the engine."""
        sim, _, nodes, engine, ids, _ = build_mass_churn_system(
            n=30, die_at=1001.5, survivors=2
        )
        sim.run_until(999.0)
        record = engine.multicast(ids[5], TargetSpec.range(0.5, 1.0), mode="gossip")
        sim.run_until(1020.0)  # gossip rounds straddle the mass failure
        assert record.data_messages >= 0  # engine stayed consistent

    def test_duplicate_gossip_suppressed(self):
        sim, _, nodes, engine, ids, _ = build_mass_churn_system(n=25, die_at=1e8)
        record = engine.multicast(ids[0], TargetSpec.range(0.3, 1.0), mode="gossip")
        sim.run_until(60.0)
        assert len(record.deliveries) == len(set(record.deliveries))
        # Every delivered node was counted exactly once despite fanout overlap.
        assert record.duplicate_receptions >= 0
