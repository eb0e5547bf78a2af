"""Unit tests for latency models, sample summaries and the telemetry
recorder's named counters and histograms."""

import numpy as np
import pytest

from repro.sim.latency import (
    PAPER_HOP_LATENCY,
    ConstantLatency,
    LogNormalLatency,
    UniformLatency,
)
from repro.telemetry import TelemetryRecorder
from repro.util.mathx import empirical_cdf, mean_or_nan, quantile, summarize


class TestLatencyModels:
    def test_constant(self, rng):
        model = ConstantLatency(0.1)
        assert model.sample(rng) == 0.1
        assert model.mean() == 0.1

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantLatency(0.0)

    def test_uniform_bounds(self, rng):
        model = UniformLatency(0.02, 0.08)
        samples = [model.sample(rng) for _ in range(500)]
        assert all(0.02 <= s <= 0.08 for s in samples)
        assert model.mean() == pytest.approx(0.05)

    def test_uniform_mean_empirical(self, rng):
        model = UniformLatency(0.02, 0.08)
        samples = [model.sample(rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(model.mean(), rel=0.05)

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(0.08, 0.02)

    def test_paper_hop_latency_is_20_to_80_ms(self):
        assert PAPER_HOP_LATENCY.low == pytest.approx(0.020)
        assert PAPER_HOP_LATENCY.high == pytest.approx(0.080)

    def test_lognormal_positive(self, rng):
        model = LogNormalLatency(median=0.045, sigma=0.5)
        samples = [model.sample(rng) for _ in range(500)]
        assert all(s > 0 for s in samples)

    def test_lognormal_median_empirical(self, rng):
        model = LogNormalLatency(median=0.045, sigma=0.5)
        samples = [model.sample(rng) for _ in range(4000)]
        assert np.median(samples) == pytest.approx(0.045, rel=0.1)

    def test_lognormal_mean_above_median(self):
        model = LogNormalLatency(median=0.045, sigma=0.5)
        assert model.mean() > 0.045


class TestCounter:
    def test_increment(self):
        recorder = TelemetryRecorder(enabled=True)
        recorder.count("sent")
        recorder.count("sent", 4)
        assert recorder.snapshot().counters == {"sent": 5}


class TestDistribution:
    def test_basic_stats(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["median"] == pytest.approx(2.5)
        assert summary["p90"] == pytest.approx(3.7)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0

    def test_empty_stats_are_nan(self):
        assert np.isnan(quantile([], 0.5))
        assert np.isnan(mean_or_nan([]))

    def test_cdf_monotone_ending_at_one(self, rng):
        xs, ps = empirical_cdf(rng.uniform(0, 1, 100))
        assert np.all(np.diff(xs) > 0)
        assert np.all(np.diff(ps) >= 0)
        assert ps[-1] == pytest.approx(1.0)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_quantile_level_checked_on_empty_sample(self):
        for q in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                quantile([], q)
        assert np.isnan(quantile([], 0.5))
        assert np.isnan(quantile([], 0.0)) and np.isnan(quantile([], 1.0))

    def test_summary_keys(self):
        summary = summarize([1.0, 2.0])
        assert set(summary) == {"count", "mean", "median", "p90", "min", "max"}


class TestRegistry:
    def test_memoizes_by_name(self):
        recorder = TelemetryRecorder(enabled=True)
        recorder.observe("lat", 1.0)
        recorder.observe_array("lat", np.array([2.0, 3.0]))
        histograms = recorder.snapshot().histograms
        assert list(histograms) == ["lat"]
        assert histograms["lat"]["count"] == 3
        assert histograms["lat"]["sum"] == 6.0

    def test_snapshot_structure(self):
        recorder = TelemetryRecorder(enabled=True)
        recorder.count("sent", 3)
        recorder.observe("pop", 5.0)
        recorder.distribution("lat", summarize([1.0, 2.0]))
        snap = recorder.snapshot()
        assert snap.counters == {"sent": 3}
        assert snap.distributions["lat"]["count"] == 2.0
        assert snap.histograms["pop"]["count"] == 1

    def test_names_sorted(self):
        recorder = TelemetryRecorder(enabled=True)
        for name in ("b", "a"):
            recorder.count(name)
            recorder.observe(name, 1.0)
            recorder.distribution(name, summarize([1.0]))
        snap = recorder.snapshot()
        assert list(snap.counters) == ["a", "b"]
        assert list(snap.histograms) == ["a", "b"]
        assert list(snap.distributions) == ["a", "b"]
