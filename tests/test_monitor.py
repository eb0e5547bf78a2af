"""Unit tests for the availability-monitoring substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.trace import ChurnTrace
from repro.core.ids import make_node_ids
from repro.core.population import Population
from repro.monitor.base import AvailabilityService, CoarseViewProvider
from repro.monitor.cache import CachedAvailabilityView
from repro.monitor.coarse_view import GlobalSampleView, ShuffledCoarseView
from repro.monitor.oracle import OracleAvailability
from repro.scenarios import get_scenario
from repro.sim.engine import Simulator


@pytest.fixture
def trace_and_ids():
    ids = make_node_ids(4)
    sessions = {
        ids[0]: [(0.0, 100.0)],   # on for first 100s
        ids[1]: [(50.0, 200.0)],  # late joiner
        ids[2]: [(0.0, 200.0)],   # always on
        ids[3]: [],               # never on
    }
    return ChurnTrace.from_intervals(sessions, horizon=200.0), ids


class TestOracle:
    def test_raw_availability(self, trace_and_ids):
        trace, _ = trace_and_ids
        sim = Simulator()
        oracle = OracleAvailability(trace, sim)
        sim.run_until(100.0)
        assert oracle.query(0) == pytest.approx(1.0)
        assert oracle.query(1) == pytest.approx(0.5)
        assert oracle.query(3) == 0.0

    def test_windowed_availability(self, trace_and_ids):
        trace, _ = trace_and_ids
        sim = Simulator()
        oracle = OracleAvailability(trace, sim, window=50.0)
        sim.run_until(150.0)
        assert oracle.query(0) == pytest.approx(0.0)  # offline since 100
        assert oracle.query(1) == pytest.approx(1.0)

    def test_unknown_node_raises(self, trace_and_ids):
        trace, ids = trace_and_ids
        oracle = OracleAvailability(trace, Simulator())
        with pytest.raises(IndexError):
            oracle.query(len(ids))  # a row past the population

    def test_rows_outside_the_trace_are_refused(self, trace_and_ids):
        trace, _ = trace_and_ids
        sim = Simulator()
        oracle = OracleAvailability(trace, sim)
        sim.run_until(50.0)
        for rows in ([4], [-1, 2]):
            bad = rows[0]
            with pytest.raises(IndexError, match=rf"row {bad} outside \[0, 4\)"):
                oracle.query_array(np.array(rows))
            with pytest.raises(IndexError, match=rf"row {bad} outside \[0, 4\)"):
                oracle.query(bad)
        trace.presence_snapshot(50.0)  # inside the live window as well
        with pytest.raises(IndexError, match=r"row -1 outside \[0, 4\)"):
            oracle.query_array(np.array([-1]))

    def test_noise_bounded_and_deterministic(self, trace_and_ids):
        trace, _ = trace_and_ids
        sim = Simulator()
        oracle = OracleAvailability(trace, sim, noise_std=0.05, seed=3)
        sim.run_until(100.0)
        first = oracle.query(0)
        second = oracle.query(0)
        assert first == second  # same time bucket: same answer
        assert 0.0 <= first <= 1.0

    def test_noise_changes_across_buckets(self, trace_and_ids):
        trace, ids = trace_and_ids
        sim = Simulator()
        oracle = OracleAvailability(trace, sim, noise_std=0.05, noise_bucket=10.0, seed=3)
        # Compare the applied noise (noisy minus exact) for a node whose
        # estimate is not clipped at 0/1, so re-drawn bucket noise is
        # observable rather than masked by saturation.
        sim.run_until(55.0)
        a = oracle.query(1) - oracle.true_availability(ids[1])
        sim.run_until(65.0)
        b = oracle.query(1) - oracle.true_availability(ids[1])
        assert a != b

    def test_quantization(self, trace_and_ids):
        trace, _ = trace_and_ids
        sim = Simulator()
        oracle = OracleAvailability(trace, sim, quantization=0.25)
        sim.run_until(150.0)
        value = oracle.query(1)  # true 100/150 = 0.667 -> 0.75
        assert value == pytest.approx(0.75)

    def test_true_availability_ignores_noise(self, trace_and_ids):
        trace, ids = trace_and_ids
        sim = Simulator()
        oracle = OracleAvailability(trace, sim, noise_std=0.2, seed=1)
        sim.run_until(100.0)
        assert oracle.true_availability(ids[0]) == pytest.approx(1.0)

    def test_satisfies_protocol(self, trace_and_ids):
        trace, _ = trace_and_ids
        assert isinstance(OracleAvailability(trace, Simulator()), AvailabilityService)

    @given(
        seed=st.integers(0, 2**32 - 1),
        now=st.floats(0.0, 12 * 1200.0, allow_nan=False),
        window=st.sampled_from((None, 600.0, 3600.0, 7200.5)),
        noise_std=st.sampled_from((0.0, 0.02)),
        quantization=st.sampled_from((0.0, 0.01)),
        continuous=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_scalar_and_batched_answers_are_the_same_float(
        self, seed, now, window, noise_std, quantization, continuous
    ):
        """On an epoch-aligned trace and on a continuous-time one (a
        compiled ``weibull-lifetimes`` timeline) ``query`` and
        ``query_array`` agree to the last bit at any (fractional)
        instant, raw and windowed, with and without a live snapshot, and
        undegraded they give the id-addressed ground truth — discovery
        stores the batched answer where it used to store the scalar
        one."""
        rng = np.random.default_rng(seed)
        ids = make_node_ids(12)
        if continuous:
            compiled = get_scenario("weibull-lifetimes").compile(
                hosts=12, epochs=12, seed=seed % 1000
            )
            trace = compiled.to_trace(ids)
        else:
            trace = ChurnTrace.from_matrix(rng.random((12, 12)) < 0.6, ids, 1200.0)
        sim = Simulator(start_time=now)
        oracle = OracleAvailability(
            trace, sim, window=window, noise_std=noise_std,
            quantization=quantization, seed=seed % 1000,
        )
        row = int(rng.integers(12))
        scalar = oracle.query(row)
        if noise_std == 0.0 and quantization == 0.0:
            assert scalar == min(1.0, max(0.0, oracle.true_availability(ids[row])))
        assert scalar == oracle.query_array(np.array([row]))[0]
        everyone = oracle.query_array(np.arange(12))
        assert everyone.tolist() == [oracle.query(r) for r in range(12)]
        trace.presence_snapshot(now)  # raw queries now read its window
        assert everyone.tolist() == [oracle.query(r) for r in range(12)]
        assert oracle.query_array(np.arange(12)).tolist() == everyone.tolist()


def view_ids(provider, ids, node):
    """``provider``'s current view of ``node``, as ids."""
    return tuple(ids[row] for row in provider.view_rows(ids.index(node)).tolist())


class TestCachedView:
    @pytest.fixture
    def setup(self, trace_and_ids):
        trace, ids = trace_and_ids
        sim = Simulator()
        oracle = OracleAvailability(trace, sim)
        population = Population.from_ids(ids, np.zeros(len(ids)))
        return sim, oracle, CachedAvailabilityView(oracle, sim, population), ids

    def test_get_before_fetch_is_none(self, setup):
        _, _, cache, _ = setup
        assert cache.get(0) is None

    def test_fetch_then_get(self, setup):
        sim, _, cache, _ = setup
        sim.run_until(100.0)
        value = cache.fetch(1)
        assert cache.get(1) == value

    def test_cached_value_goes_stale(self, setup):
        """The point of the cache: reads do NOT track the service."""
        sim, oracle, cache, _ = setup
        sim.run_until(100.0)
        cache.fetch(0)  # availability 1.0 at t=100
        sim.run_until(200.0)  # true availability now 0.5
        assert cache.get(0) == pytest.approx(1.0)
        assert oracle.query(0) == pytest.approx(0.5)

    def test_staleness_tracking(self, setup):
        sim, _, cache, _ = setup
        cache.fetch(2)
        sim.run_until(42.0)
        assert cache.staleness(2) == pytest.approx(42.0)
        assert cache.staleness(0) is None

    def test_get_or_fetch(self, setup):
        _, _, cache, _ = setup
        value = cache.get_or_fetch(2)
        assert cache.get(2) == value
        assert cache.fetch_count == 1
        cache.get_or_fetch(2)
        assert cache.fetch_count == 1  # second call hit the cache

    def test_fetch_many_and_len(self, setup):
        _, _, cache, _ = setup
        cache.fetch_rows(np.arange(3))
        assert len(cache) == 3
        assert 0 in cache
        assert all(type(row) is int for row in cache._entries)

    def test_evict(self, setup):
        _, _, cache, _ = setup
        cache.fetch(0)
        cache.evict(0)
        assert cache.get(0) is None

    @pytest.mark.parametrize("with_scalar", (False, True))
    def test_deferred_batches_stay_bounded_and_last_write_wins(self, trace_and_ids, with_scalar):
        """Batches and (``with_scalar``) scalar fetches interleave, and
        a read sees the last write per row, stamped when it was made."""
        trace, ids = trace_and_ids
        sim = Simulator()
        oracle = OracleAvailability(trace, sim)
        population = Population.from_ids(ids, np.zeros(len(ids)))
        cache = CachedAvailabilityView(oracle, sim, population=population)
        batches = [[0, 1, 2], [2, 3], [1]]
        scalar_steps = {step for step in range(201) if with_scalar and step % 7 == 3}
        expected = {}
        for step in range(201):
            sim.run_until(1.0 + step)
            batch = batches[step % len(batches)]
            if step in scalar_steps:  # a scalar fetch between the batches
                batch = batch[:1]
                values = [cache.fetch(batch[0])]
            else:
                values = cache.fetch_rows(np.array(batch)).tolist()
            assert values == [oracle.query(i) for i in batch]
            expected.update((i, (v, sim.now)) for i, v in zip(batch, values))
        assert cache.fetch_count == sum(
            1 if step in scalar_steps else len(batches[step % len(batches)])
            for step in range(201)
        )
        assert len(cache) == len(expected) == 4
        for row, (value, fetched_at) in expected.items():
            assert cache.entry(row) == (value, fetched_at)
            assert cache.get(row) == value
            assert cache.staleness(row) == sim.now - fetched_at
            assert row in cache


class TestGlobalSampleView:
    def test_view_size_and_no_self(self, rng):
        sim = Simulator()
        ids = make_node_ids(50)
        view = GlobalSampleView(sim, ids, view_size=10, rng=rng, stale_fraction=0.0)
        for node in ids[:10]:
            sample = view_ids(view, ids, node)
            assert node not in sample
            assert len(sample) <= 10
            assert len(set(sample)) == len(sample)

    def test_stable_within_period(self, rng):
        sim = Simulator()
        ids = make_node_ids(50)
        view = GlobalSampleView(sim, ids, 10, rng=rng, period=60.0)
        first = view_ids(view, ids, ids[0])
        sim.run_until(30.0)
        assert view_ids(view, ids, ids[0]) == first

    def test_resampled_across_periods(self, rng):
        sim = Simulator()
        ids = make_node_ids(200)
        view = GlobalSampleView(sim, ids, 10, rng=rng, period=60.0)
        first = view_ids(view, ids, ids[0])
        sim.run_until(61.0)
        assert view_ids(view, ids, ids[0]) != first

    def test_online_only_sampling(self, rng, trace_and_ids):
        trace, ids = trace_and_ids
        sim = Simulator()
        view = GlobalSampleView(
            sim, ids, 3, rng=rng, presence=trace, stale_fraction=0.0
        )
        sim.run_until(150.0)
        sample = view_ids(view, ids, ids[3])
        # At t=150 only ids[1] and ids[2] are online.
        assert set(sample) <= {ids[1], ids[2]}

    def test_unknown_node_raises(self, rng, trace_and_ids):
        """Presence is read by row: a member the trace has never heard of
        is refused up front."""
        trace, ids = trace_and_ids
        with pytest.raises(KeyError):
            GlobalSampleView(Simulator(), ids + make_node_ids(5)[4:], 2, rng=rng, presence=trace)

    def test_coverage_over_periods(self, rng):
        """Every node eventually appears in a given view — the discovery
        requirement of Section 3.1."""
        sim = Simulator()
        ids = make_node_ids(30)
        view = GlobalSampleView(sim, ids, 8, rng=rng, period=10.0, stale_fraction=0.0)
        seen = set()
        for step in range(60):
            seen.update(view_ids(view, ids, ids[0]))
            sim.run_until((step + 1) * 10.0)
        assert len(seen) == 29  # everyone but self

    def test_satisfies_protocol(self, rng):
        view = GlobalSampleView(Simulator(), make_node_ids(5), 2, rng=rng)
        assert isinstance(view, CoarseViewProvider)

    def test_view_always_filled_when_population_permits(self, rng):
        """Regression: stale picks that collide with live picks (or the
        owner) must be resampled, not dropped — otherwise views silently
        shrink below ``view_size`` and bias discovery time."""
        sim = Simulator()
        ids = make_node_ids(12)
        view = GlobalSampleView(
            sim, ids, view_size=10, rng=rng, period=10.0, stale_fraction=0.5
        )
        for step in range(20):
            for node in ids[:4]:
                sample = view_ids(view, ids, node)
                assert len(sample) == view.view_size
                assert node not in sample
                assert len(set(sample)) == len(sample)
            sim.run_until((step + 1) * 10.0)

    def test_live_slots_never_filled_with_offline_nodes(self, rng, trace_and_ids):
        """The top-up must respect the live/stale composition: with
        ``stale_fraction=0`` a thin online population yields a short
        view, never an offline padding pick."""
        trace, ids = trace_and_ids
        sim = Simulator()
        view = GlobalSampleView(
            sim, ids, view_size=4, rng=rng, presence=trace, stale_fraction=0.0
        )
        sim.run_until(150.0)
        sample = view_ids(view, ids, ids[3])
        # At t=150 only ids[1] and ids[2] are online.
        assert set(sample) <= {ids[1], ids[2]}


class TestShuffledCoarseView:
    def test_bootstrap_views_valid(self, rng):
        sim = Simulator()
        ids = make_node_ids(40)
        view = ShuffledCoarseView(sim, ids, view_size=8, rng=rng, start=False)
        for node in ids:
            sample = view_ids(view, ids, node)
            assert node not in sample
            assert len(sample) == 8
            assert len(set(sample)) == 8

    def test_shuffling_changes_views(self, rng):
        sim = Simulator()
        ids = make_node_ids(40)
        view = ShuffledCoarseView(sim, ids, view_size=8, rng=rng, start=False)
        before = view_ids(view, ids, ids[0])
        for _ in range(5):
            view.step()
        assert view.shuffle_count > 0
        assert view_ids(view, ids, ids[0]) != before

    def test_views_never_contain_self_after_shuffles(self, rng):
        sim = Simulator()
        ids = make_node_ids(30)
        view = ShuffledCoarseView(sim, ids, view_size=6, rng=rng, start=False)
        for _ in range(10):
            view.step()
        for node in ids:
            assert node not in view_ids(view, ids, node)
            assert len(view_ids(view, ids, node)) <= 6

    def test_eventual_coverage(self, rng):
        sim = Simulator()
        ids = make_node_ids(25)
        view = ShuffledCoarseView(sim, ids, view_size=6, rng=rng, start=False)
        seen = set()
        for _ in range(120):
            view.step()
            seen.update(view_ids(view, ids, ids[0]))
        assert len(seen) >= 20  # wide coverage of the population

    def test_periodic_task_drives_shuffles(self, rng):
        sim = Simulator()
        ids = make_node_ids(20)
        view = ShuffledCoarseView(sim, ids, view_size=5, rng=rng, period=10.0)
        sim.run_until(35.0)
        assert view.shuffle_count >= 20 * 3
        view.stop()
        count = view.shuffle_count
        sim.run_until(100.0)
        assert view.shuffle_count == count
