"""Integration tests for the AvmemSimulation orchestrator."""

import numpy as np
import pytest

from repro.core.config import AvmemConfig
from repro.ops.results import AnycastStatus
from repro.ops.spec import TargetSpec
from repro.simulation import AvmemSimulation, SimulationSettings

from conftest import launch


class TestSettings:
    def test_defaults_are_paper_scale(self):
        settings = SimulationSettings()
        assert settings.hosts == 1442
        assert settings.epochs == 504
        assert settings.horizon == pytest.approx(7 * 86400.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationSettings(hosts=1)
        with pytest.raises(ValueError):
            SimulationSettings(predicate_kind="fancy")
        with pytest.raises(ValueError):
            SimulationSettings(bootstrap="magic")
        with pytest.raises(ValueError):
            SimulationSettings(coarse_view_kind="none")
        with pytest.raises(ValueError):
            SimulationSettings(protocols="sometimes")


class TestLifecycle:
    def test_setup_required_before_ops(self):
        simulation = AvmemSimulation(SimulationSettings(hosts=50, epochs=20))
        with pytest.raises(RuntimeError):
            launch(simulation, "anycast", (0.8, 0.9))

    def test_double_setup_rejected(self):
        simulation = AvmemSimulation(SimulationSettings(hosts=50, epochs=20))
        simulation.setup(warmup=6000.0, settle=1200.0)
        with pytest.raises(RuntimeError):
            simulation.setup(warmup=6000.0)

    def test_warmup_must_fit_horizon(self):
        simulation = AvmemSimulation(SimulationSettings(hosts=50, epochs=20))
        with pytest.raises(ValueError):
            simulation.setup(warmup=1e9)

    def test_bad_settle_rejected(self):
        simulation = AvmemSimulation(SimulationSettings(hosts=50, epochs=20))
        with pytest.raises(ValueError):
            simulation.setup(warmup=6000.0, settle=7000.0)


class TestWarmedSystem:
    def test_population_online(self, small_simulation):
        online = small_simulation.online_ids()
        assert 20 <= len(online) <= 220

    def test_lists_populated(self, small_simulation):
        populated = [
            n for n in small_simulation.online_nodes() if n.lists.total_count > 0
        ]
        assert len(populated) >= 0.9 * len(small_simulation.online_ids())

    def test_caches_hold_neighbor_availabilities(self, small_simulation):
        node = small_simulation.online_nodes()[0]
        for entry in node.lists.all_entries():
            assert 0.0 <= entry.availability <= 1.0

    def test_true_availability_matches_trace(self, small_simulation):
        s = small_simulation
        node = s.online_ids()[0]
        assert s.true_availability(node) == pytest.approx(
            s.trace.availability(node, s.sim.now)
        )

    def test_pick_initiator_respects_band(self, small_simulation):
        s = small_simulation
        for band, (lo, hi) in (("low", (0.0, 1 / 3)), ("high", (2 / 3, 1.01))):
            initiator = s.pick_initiator(band)
            if initiator is not None:
                av = s.true_availability(initiator)
                assert lo <= av < hi

    def test_as_target_coercion(self):
        assert AvmemSimulation.as_target((0.2, 0.3)) == TargetSpec.range(0.2, 0.3)
        assert AvmemSimulation.as_target(0.9) == TargetSpec.threshold(0.9)
        spec = TargetSpec.range(0.1, 0.2)
        assert AvmemSimulation.as_target(spec) is spec


class TestOperations:
    def test_run_anycast_easy_target(self, small_simulation):
        (record,) = launch(
            small_simulation, "anycast", (0.75, 1.0), band="mid", policy="retry-greedy"
        )
        assert record.status in AnycastStatus.TERMINAL
        assert record.delivered  # wide high target: deliverable

    def test_run_anycast_batch(self, small_simulation):
        records = launch(
            small_simulation, "anycast", (0.7, 1.0), count=5, band="mid", policy="greedy"
        )
        assert len(records) == 5
        assert all(r.status != AnycastStatus.PENDING for r in records)

    def test_run_multicast(self, small_simulation):
        (record,) = launch(
            small_simulation, "multicast", (0.7, 1.0), band="high", mode="flood"
        )
        assert record.reliability() >= 0.5

    def test_run_multicast_batch(self, small_simulation):
        records = launch(
            small_simulation, "multicast", 0.5, count=3, band="high", mode="gossip"
        )
        assert len(records) == 3

    def test_operations_advance_time(self, small_simulation):
        before = small_simulation.sim.now
        launch(small_simulation, "anycast", (0.7, 1.0), band="mid")
        assert small_simulation.sim.now > before


class TestDirectVsProtocolBootstrap:
    """The consistency property: both bootstrap modes converge to overlays
    with statistically matching sliver sizes."""

    @pytest.mark.slow
    def test_modes_agree_on_sliver_scale(self):
        base = dict(hosts=150, epochs=48, seed=21)
        direct = AvmemSimulation(SimulationSettings(**base, bootstrap="direct"))
        direct.setup(warmup=12600.0, settle=2400.0)
        protocol = AvmemSimulation(SimulationSettings(**base, bootstrap="protocol"))
        protocol.setup(warmup=12600.0)
        def mean_degree(sim):
            nodes = sim.online_nodes()
            return np.mean([n.lists.total_count for n in nodes])
        d, p = mean_degree(direct), mean_degree(protocol)
        assert d == pytest.approx(p, rel=0.6)

    def test_random_predicate_kind(self):
        simulation = AvmemSimulation(
            SimulationSettings(hosts=80, epochs=30, seed=3, predicate_kind="random")
        )
        simulation.setup(warmup=9000.0, settle=1800.0)
        # Same threshold everywhere is the defining property.
        predicate = simulation.predicate
        assert predicate.threshold(0.1, 0.9) == predicate.threshold(0.5, 0.52)

    def test_shuffled_coarse_view_kind(self):
        simulation = AvmemSimulation(
            SimulationSettings(hosts=80, epochs=30, seed=3, coarse_view_kind="shuffled")
        )
        simulation.setup(warmup=9000.0, settle=1800.0)
        node = simulation.online_ids()[0]
        assert len(simulation.coarse_view.view(node)) > 0


class TestDeterminism:
    def test_same_seed_same_overlay(self):
        def build():
            simulation = AvmemSimulation(
                SimulationSettings(hosts=80, epochs=30, seed=77, protocols="off")
            )
            simulation.setup(warmup=9000.0, settle=0.0)
            return {
                node_id: sorted(str(n) for n in node.lists.neighbor_ids())
                for node_id, node in simulation.nodes.items()
            }
        assert build() == build()
