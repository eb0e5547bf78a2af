"""Unit tests for the AVMON availability-monitoring overlay, kept as a
test reference in ``tests/reference/avmon.py``."""

import numpy as np
import pytest

from repro.churn.overnet import OvernetTraceConfig, generate_overnet_trace
from repro.core.ids import make_node_ids
from repro.monitor.coarse_view import GlobalSampleView
from repro.sim.engine import Simulator

from reference.avmon import AvmonConfig, AvmonService, MonitorRecord


@pytest.fixture
def avmon_setup(rng):
    ids = make_node_ids(150)
    config = OvernetTraceConfig(hosts=150, epochs=60)
    trace = generate_overnet_trace(node_keys=ids, config=config, seed=11)
    sim = Simulator()
    coarse = GlobalSampleView(sim, ids, view_size=20, rng=rng, presence=trace)
    service = AvmonService(
        sim,
        trace,
        ids,
        coarse,
        n_star=60.0,
        config=AvmonConfig(monitors_per_node=10, ping_period=120.0, discovery_period=120.0),
        rng=rng,
    )
    return sim, trace, ids, service


class TestMonitorSelection:
    def test_consistent(self, avmon_setup):
        _, _, ids, service = avmon_setup
        for x in ids[:10]:
            for z in ids[10:20]:
                assert service.should_monitor(z, x) == service.should_monitor(z, x)

    def test_never_self_monitor(self, avmon_setup):
        _, _, ids, service = avmon_setup
        assert not any(service.should_monitor(x, x) for x in ids)

    def test_expected_monitor_count(self, avmon_setup):
        _, _, ids, service = avmon_setup
        counts = [len(service.monitors_of(x)) for x in ids]
        # K=10, N*=60, population 150 -> expected 150*(10/60) = 25.
        assert np.mean(counts) == pytest.approx(25.0, rel=0.25)

    def test_directed_relation(self, avmon_setup):
        _, _, ids, service = avmon_setup
        asymmetries = sum(
            service.should_monitor(a, b) != service.should_monitor(b, a)
            for a in ids[:20]
            for b in ids[20:40]
        )
        assert asymmetries > 0


class TestMeasurement:
    def test_estimates_converge_to_availability(self, avmon_setup):
        sim, trace, ids, service = avmon_setup
        sim.run_until(40000.0)
        errors = []
        for node in ids:
            estimate = service.query(node)
            # Compare against the windowed truth over the measured period.
            truth = trace.availability(node, sim.now)
            if service.discovered_monitor_count(node) >= 3:
                errors.append(abs(estimate - truth))
        assert errors, "no node had enough discovered monitors"
        assert float(np.mean(errors)) < 0.15

    def test_query_unknown_raises(self, avmon_setup):
        _, _, _, service = avmon_setup
        with pytest.raises(KeyError):
            service.query(make_node_ids(200)[199])

    def test_query_without_measurements_is_prior(self, avmon_setup):
        _, _, ids, service = avmon_setup
        assert service.query(ids[0]) == 0.5  # nothing measured yet

    def test_ping_counting(self, avmon_setup):
        sim, _, _, service = avmon_setup
        sim.run_until(5000.0)
        assert service.ping_count > 0

    def test_stop_halts_pinging(self, avmon_setup):
        sim, _, _, service = avmon_setup
        sim.run_until(5000.0)
        service.stop()
        count = service.ping_count
        sim.run_until(10000.0)
        assert service.ping_count == count


class TestMonitorRecord:
    def test_estimate_fraction(self):
        record = MonitorRecord()
        assert record.estimate is None
        record.observe(True)
        record.observe(True)
        record.observe(False)
        assert record.estimate == pytest.approx(2.0 / 3.0)
        assert record.pings_sent == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AvmonConfig(monitors_per_node=0)
        with pytest.raises(ValueError):
            AvmonConfig(ping_period=0.0)


class TestQueryArray:
    """The batched query API (scalar/batch parity is the contract)."""

    def test_parity_with_scalar_query(self, avmon_setup):
        sim, _, ids, service = avmon_setup
        sim.run_until(3600.0 * 6)  # let discovery + pings accumulate
        batch = service.query_array(np.arange(len(ids)))
        scalar = np.array([service.query(node) for node in ids])
        np.testing.assert_allclose(batch, scalar)
        # At least some nodes should have real measurements by now.
        assert (batch != 0.5).any()

    def test_unknown_node_raises(self, avmon_setup):
        _, _, ids, service = avmon_setup
        with pytest.raises(IndexError):
            service.query_array(np.array([0, len(ids)]))  # a row past the population

    def test_unmeasured_nodes_answer_the_prior(self, avmon_setup):
        _, _, ids, service = avmon_setup
        # No time has passed: nobody has pinged anybody.
        np.testing.assert_allclose(service.query_array(np.arange(7)), 0.5)

    def test_cached_view_uses_the_batch_path(self, avmon_setup):
        """A row-addressed cache hands AVMON rows of its own population."""
        from repro.core.population import Population
        from repro.monitor.cache import CachedAvailabilityView

        sim, _, ids, service = avmon_setup
        sim.run_until(3600.0 * 6)
        view = CachedAvailabilityView(service, sim, Population.from_ids(ids, np.zeros(len(ids))))
        rows = np.arange(len(ids))[::-6]
        values = view.fetch_rows(rows)
        assert values.tolist() == [service.query(ids[r]) for r in rows]
        assert (values != 0.5).any()
        # The batch lands in the cache, keyed by row.
        assert view.fetch_count == rows.size
        for row, value in zip(rows.tolist(), values):
            assert view.get(row) == value
