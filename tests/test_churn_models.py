"""Unit tests for Markov churn models and the synthetic Overnet generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.churn.models as churn_models
from repro.churn.models import (
    DiurnalProfile,
    MarkovChurnModel,
    sample_epoch_matrix,
    scaled_session_epochs,
)
from repro.churn.overnet import (
    DEFAULT_MIXTURE,
    OvernetTraceConfig,
    generate_overnet_trace,
    sample_availabilities,
)
from repro.churn.stats import summarize_trace

from reference.churn_models import sample_epoch_matrix_scalar


class TestMarkovChurnModel:
    def test_stationary_availability(self, rng):
        model = MarkovChurnModel(0.6, mean_online_epochs=4.0)
        presence = model.sample_presence(20000, rng)
        assert presence.mean() == pytest.approx(0.6, abs=0.05)

    def test_mean_session_length(self, rng):
        model = MarkovChurnModel(0.5, mean_online_epochs=5.0)
        presence = model.sample_presence(50000, rng)
        runs = []
        current = 0
        for value in presence:
            if value:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert np.mean(runs) == pytest.approx(5.0, rel=0.15)

    def test_degenerate_always_on(self, rng):
        presence = MarkovChurnModel(1.0).sample_presence(100, rng)
        assert presence.all()

    def test_degenerate_always_off(self, rng):
        presence = MarkovChurnModel(0.0).sample_presence(100, rng)
        assert not presence.any()

    def test_invalid_availability_rejected(self):
        with pytest.raises(ValueError):
            MarkovChurnModel(1.5)

    def test_short_sessions_rejected(self):
        with pytest.raises(ValueError):
            MarkovChurnModel(0.5, mean_online_epochs=0.5)

    def test_zero_epochs_rejected(self, rng):
        with pytest.raises(ValueError):
            MarkovChurnModel(0.5).sample_presence(0, rng)


class TestScaledSessions:
    def test_grows_with_availability(self):
        low = scaled_session_epochs(0.2, 3.0, 200.0)
        high = scaled_session_epochs(0.9, 3.0, 200.0)
        assert high > low

    def test_floor_at_base(self):
        assert scaled_session_epochs(0.01, 3.0, 200.0) >= 3.0

    def test_cap_respected(self):
        assert scaled_session_epochs(0.9999, 3.0, 50.0) == 50.0
        assert scaled_session_epochs(1.0, 3.0, 50.0) == 50.0


class TestDiurnalProfile:
    def test_zero_amplitude_is_identity(self):
        profile = DiurnalProfile(amplitude=0.0)
        assert profile.multiplier(0.0) == 1.0
        assert profile.multiplier(12345.0) == 1.0

    def test_peak_at_peak_hour(self):
        profile = DiurnalProfile(amplitude=0.3, peak_hour=21.0)
        peak = profile.multiplier(21 * 3600.0)
        trough = profile.multiplier(9 * 3600.0)
        assert peak == pytest.approx(1.3)
        assert trough == pytest.approx(0.7)

    def test_daily_period(self):
        profile = DiurnalProfile(amplitude=0.3)
        assert profile.multiplier(3600.0) == pytest.approx(
            profile.multiplier(3600.0 + 86400.0)
        )


class TestEpochMatrix:
    def test_shape(self, rng):
        matrix = sample_epoch_matrix([0.5, 0.9], epochs=50, rng=rng)
        assert matrix.shape == (50, 2)
        assert matrix.dtype == bool

    def test_calibration_across_population(self, rng):
        targets = [0.2, 0.5, 0.8] * 40
        matrix = sample_epoch_matrix(targets, epochs=600, rng=rng)
        empirical = matrix.mean(axis=0)
        assert np.mean(np.abs(empirical - np.array(targets))) < 0.12

    def test_diurnal_fraction_validated(self, rng):
        with pytest.raises(ValueError):
            sample_epoch_matrix([0.5], 10, rng, diurnal_fraction=1.5)

    def test_inputs_validated_like_the_per_node_chain(self, rng):
        with pytest.raises(ValueError):
            sample_epoch_matrix([0.5, 1.2], 10, rng)
        with pytest.raises(ValueError):
            sample_epoch_matrix([0.5], 0, rng)
        with pytest.raises(ValueError):
            sample_epoch_matrix([0.5], 10, rng, mean_online_epochs=0.5, session_scaling=False)

    @given(
        availabilities=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-4, 1.0 - 1e-4)),
            min_size=0,
            max_size=40,
        ),
        epochs=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.sampled_from([None, 0.0, 0.3, 0.9]),
        diurnal_fraction=st.sampled_from([0.0, 0.4, 1.0]),
        session_scaling=st.booleans(),
        mean_online_epochs=st.sampled_from([1.0, 3.0, 7.5]),
        budget=st.sampled_from([1, 64, 1 << 22]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_scalar_reference(
        self, availabilities, epochs, seed, amplitude, diurnal_fraction,
        session_scaling, mean_online_epochs, budget,
    ):
        """Same matrix *and* same generator state as the per-node scalar
        loop, across degenerate 0/1 availabilities, diurnal on/off and
        every chunking of the uniform block."""
        diurnal = None if amplitude is None else DiurnalProfile(amplitude=amplitude)
        kwargs = dict(
            mean_online_epochs=mean_online_epochs,
            epoch_seconds=1200.0,
            diurnal=diurnal,
            diurnal_fraction=diurnal_fraction,
            session_scaling=session_scaling,
        )
        fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        original = churn_models._UNIFORM_BUDGET
        churn_models._UNIFORM_BUDGET = budget
        try:
            fast = sample_epoch_matrix(availabilities, epochs, fast_rng, **kwargs)
        finally:
            churn_models._UNIFORM_BUDGET = original
        slow = sample_epoch_matrix_scalar(availabilities, epochs, slow_rng, **kwargs)
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        assert (fast == slow).all()
        assert fast_rng.random() == slow_rng.random()


class TestOvernetGenerator:
    @pytest.mark.parametrize("hosts", [1442, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_unchanged_by_the_vectorization(self, monkeypatch, hosts, seed):
        """The churn trace a seed generates — sessions, lifetime
        availabilities, and where the stream stands afterwards — is the
        one the scalar per-node loop generated, bit for bit."""
        config = OvernetTraceConfig(hosts=hosts, epochs=96)
        fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = generate_overnet_trace(config=config, rng=fast_rng)
        monkeypatch.setattr(
            "repro.churn.overnet.sample_epoch_matrix", sample_epoch_matrix_scalar
        )
        slow = generate_overnet_trace(config=config, rng=slow_rng)
        for column in ("starts", "ends", "node_index", "offsets"):
            np.testing.assert_array_equal(
                getattr(fast.timeline, column), getattr(slow.timeline, column)
            )
        lifetime = fast.timeline.lifetime_availability_array()
        assert lifetime.tolist() == [slow.lifetime_availability(k) for k in slow.nodes]
        assert fast_rng.random() == slow_rng.random()

    def test_mixture_half_below_030(self, rng):
        samples = sample_availabilities(6000, rng)
        frac = (samples < 0.30).mean()
        assert 0.40 <= frac <= 0.60  # the paper's "50% below 0.3"

    def test_mixture_has_stable_tail(self, rng):
        samples = sample_availabilities(6000, rng)
        assert (samples > 0.85).mean() > 0.05

    def test_samples_strictly_inside_unit_interval(self, rng):
        samples = sample_availabilities(1000, rng)
        assert samples.min() > 0.0
        assert samples.max() < 1.0

    def test_paper_dimensions_default(self):
        config = OvernetTraceConfig()
        assert config.hosts == 1442
        assert config.epochs == 504
        assert config.epoch_seconds == 1200.0
        assert config.horizon == pytest.approx(7 * 86400.0)

    def test_generated_trace_statistics(self):
        config = OvernetTraceConfig(hosts=400, epochs=120)
        trace = generate_overnet_trace(config=config, seed=5)
        summary = summarize_trace(trace)
        assert summary.node_count == 400
        assert 0.25 <= summary.mean_availability <= 0.45
        # Online population should be roughly hosts * mean availability.
        expected = summary.mean_availability * 400
        assert summary.mean_online_population == pytest.approx(expected, rel=0.35)

    def test_deterministic_with_seed(self):
        config = OvernetTraceConfig(hosts=50, epochs=30)
        t1 = generate_overnet_trace(config=config, seed=9)
        t2 = generate_overnet_trace(config=config, seed=9)
        m1, _ = t1.to_matrix(1200.0)
        m2, _ = t2.to_matrix(1200.0)
        assert (m1 == m2).all()

    def test_seed_changes_output(self):
        config = OvernetTraceConfig(hosts=50, epochs=30)
        m1, _ = generate_overnet_trace(config=config, seed=1).to_matrix(1200.0)
        m2, _ = generate_overnet_trace(config=config, seed=2).to_matrix(1200.0)
        assert (m1 != m2).any()

    def test_custom_node_keys(self):
        config = OvernetTraceConfig(hosts=10, epochs=10)
        keys = [f"host-{i}" for i in range(10)]
        trace = generate_overnet_trace(node_keys=keys, config=config, seed=0)
        assert trace.nodes == tuple(keys)

    def test_key_count_mismatch_rejected(self):
        config = OvernetTraceConfig(hosts=10, epochs=10)
        with pytest.raises(ValueError):
            generate_overnet_trace(node_keys=["a"], config=config, seed=0)

    def test_rng_and_seed_mutually_exclusive(self, rng):
        config = OvernetTraceConfig(hosts=10, epochs=10)
        with pytest.raises(ValueError):
            generate_overnet_trace(config=config, rng=rng, seed=1)
