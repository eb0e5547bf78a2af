"""Unit + property tests for the discretized availability PDF."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.availability import AvailabilityPdf


class TestConstruction:
    def test_from_samples_basic(self, rng):
        samples = rng.uniform(0, 1, 500)
        pdf = AvailabilityPdf.from_samples(samples)
        assert pdf.bins == 20
        assert pdf.n_star == pytest.approx(samples.sum())

    def test_online_weighting_default(self):
        # Two hosts: availability 0.1 and 0.9 -> N* = 1.0 online expected.
        pdf = AvailabilityPdf.from_samples([0.1, 0.9])
        assert pdf.n_star == pytest.approx(1.0)

    def test_unweighted_option(self):
        pdf = AvailabilityPdf.from_samples([0.1, 0.9], online_weighted=False)
        assert pdf.n_star == pytest.approx(2.0)
        assert pdf.fraction_in(0.0, 0.5) == pytest.approx(0.5)

    def test_online_weighting_shifts_mass_up(self):
        pdf = AvailabilityPdf.from_samples([0.1, 0.9])
        assert pdf.fraction_in(0.5, 1.0) == pytest.approx(0.9)

    def test_explicit_n_star(self):
        pdf = AvailabilityPdf.from_samples([0.5, 0.5], n_star=442.0)
        assert pdf.n_star == 442.0

    def test_uniform_factory(self):
        pdf = AvailabilityPdf.uniform(n_star=100.0)
        assert pdf.density(0.1) == pytest.approx(pdf.density(0.9))
        assert pdf.fraction_in(0.0, 1.0) == pytest.approx(1.0)

    def test_all_zero_availability_falls_back(self):
        pdf = AvailabilityPdf.from_samples([0.0, 0.0, 0.0])
        assert pdf.fraction_in(0.0, 0.1) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AvailabilityPdf.from_samples([])
        with pytest.raises(ValueError):
            AvailabilityPdf.from_samples([1.5])
        with pytest.raises(ValueError):
            AvailabilityPdf.from_samples([0.5], bins=0)
        with pytest.raises(ValueError):
            AvailabilityPdf([-1.0, 2.0], n_star=10)
        with pytest.raises(ValueError):
            AvailabilityPdf([0.0, 0.0], n_star=10)


class TestDensityAndMass:
    def test_density_integrates_to_one(self, rng):
        pdf = AvailabilityPdf.from_samples(rng.beta(2, 5, 1000))
        grid = np.linspace(0.001, 0.999, 5000)
        integral = np.trapezoid(np.asarray(pdf.density(grid)), grid)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_fraction_in_full_interval(self, rng):
        pdf = AvailabilityPdf.from_samples(rng.uniform(0, 1, 200))
        assert pdf.fraction_in(0.0, 1.0) == pytest.approx(1.0)

    def test_fraction_in_clamps_bounds(self, rng):
        pdf = AvailabilityPdf.from_samples(rng.uniform(0, 1, 200))
        assert pdf.fraction_in(-0.5, 1.5) == pytest.approx(1.0)

    def test_fraction_in_empty_interval(self, rng):
        pdf = AvailabilityPdf.from_samples(rng.uniform(0, 1, 200))
        assert pdf.fraction_in(0.5, 0.5) == 0.0
        assert pdf.fraction_in(0.7, 0.3) == 0.0

    def test_fraction_in_additive(self, rng):
        pdf = AvailabilityPdf.from_samples(rng.uniform(0, 1, 200))
        total = pdf.fraction_in(0.2, 0.8)
        split = pdf.fraction_in(0.2, 0.5) + pdf.fraction_in(0.5, 0.8)
        assert total == pytest.approx(split)

    def test_sub_bin_interpolation(self):
        pdf = AvailabilityPdf.uniform(n_star=10.0, bins=10)
        assert pdf.fraction_in(0.0, 0.05) == pytest.approx(0.05)

    def test_density_vectorized_matches_scalar(self, rng):
        pdf = AvailabilityPdf.from_samples(rng.beta(2, 2, 300))
        grid = np.linspace(0.01, 0.99, 37)
        vector = np.asarray(pdf.density(grid))
        scalar = np.array([pdf.density(float(a)) for a in grid])
        assert np.allclose(vector, scalar)


def density_by_clip(pdf, a):
    """The array path of ``density`` as it was written with ``np.clip``
    and a per-call division — the float-for-float reference."""
    width = 1.0 / pdf.bins
    idx = np.clip((a / width).astype(int), 0, pdf.bins - 1)
    return pdf.bin_fractions[idx] / width


class TestDensityArrayPath:
    @given(
        samples=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        bins=st.integers(1, 40),
        values=st.lists(
            st.one_of(
                st.floats(-2.0, 3.0),
                st.integers(-3, 43).map(lambda k: k / 40),  # bin edges for 40 bins
                st.integers(0, 20).map(lambda k: k / 20),  # ... and for 20
                st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1.0, 1e300, -1e300]),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_floats_as_the_clip_expression(self, samples, bins, values):
        pdf = AvailabilityPdf.from_samples(samples, bins=bins)
        a = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):  # NaN/inf -> int casts warn in both
            got = pdf.density(a)
            want = density_by_clip(pdf, a)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            for value in values[:3]:  # 0-d arrays take the scalar clamp
                zero_d = pdf.density(np.array(value))
                assert np.float64(zero_d).tobytes() == np.float64(
                    density_by_clip(pdf, np.array(value))
                ).tobytes()

    def test_input_left_untouched(self):
        pdf = AvailabilityPdf.uniform(n_star=10.0, bins=10)
        a = np.array([-0.5, 0.25, 1.5])
        pdf.density(a)
        assert a.tolist() == [-0.5, 0.25, 1.5]


class TestPaperQuantities:
    def test_expected_online_in(self):
        pdf = AvailabilityPdf.uniform(n_star=100.0)
        assert pdf.expected_online_in(0.0, 0.5) == pytest.approx(50.0)

    def test_n_star_av_uniform(self):
        pdf = AvailabilityPdf.uniform(n_star=100.0)
        assert pdf.n_star_av(0.5, 0.1) == pytest.approx(20.0)

    def test_n_star_av_at_boundary(self):
        pdf = AvailabilityPdf.uniform(n_star=100.0)
        # Band [0.9, 1.1] clamps to [0.9, 1.0].
        assert pdf.n_star_av(1.0, 0.1) == pytest.approx(10.0)

    def test_n_star_min_le_n_star_av(self, rng):
        pdf = AvailabilityPdf.from_samples(rng.beta(2, 5, 1000))
        for a in (0.05, 0.3, 0.5, 0.7, 0.95):
            assert pdf.n_star_min_av(a, 0.1) <= pdf.n_star_av(a, 0.1) + 1e-9

    def test_n_star_min_uniform(self):
        pdf = AvailabilityPdf.uniform(n_star=100.0)
        # Any width-0.1 window holds 10 expected nodes.
        assert pdf.n_star_min_av(0.5, 0.1) == pytest.approx(10.0)

    def test_n_star_min_positive_at_boundaries(self, rng):
        """The boundary clamp: windows never hang outside [0, 1]."""
        pdf = AvailabilityPdf.from_samples(rng.beta(2, 2, 1000))
        assert pdf.n_star_min_av(0.98, 0.1) > 0.0
        assert pdf.n_star_min_av(0.02, 0.1) > 0.0

    def test_epsilon_validation(self):
        pdf = AvailabilityPdf.uniform(n_star=10.0)
        with pytest.raises(ValueError):
            pdf.n_star_av(0.5, 0.0)


@given(
    data=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=80),
    lo=st.floats(0.0, 1.0),
    hi=st.floats(0.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_fraction_in_properties(data, lo, hi):
    """fraction_in is a sub-probability measure (hypothesis)."""
    pdf = AvailabilityPdf.from_samples(data, online_weighted=False)
    mass = pdf.fraction_in(min(lo, hi), max(lo, hi))
    assert -1e-9 <= mass <= 1.0 + 1e-9
    assert pdf.fraction_in(0.0, 1.0) == pytest.approx(1.0)
