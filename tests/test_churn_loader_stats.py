"""Unit tests for trace persistence and statistics."""

import numpy as np
import pytest

from repro.churn.loader import (
    load_trace_npz,
    load_trace_text,
    save_trace_npz,
    save_trace_text,
)
from repro.churn.overnet import OvernetTraceConfig, generate_overnet_trace
from repro.churn.stats import (
    availability_samples,
    churn_events_per_epoch,
    online_availability_samples,
    online_population_series,
    summarize_trace,
)
from repro.churn.trace import ChurnTrace

from reference.churn_stats import (
    churn_events_per_epoch_scalar,
    online_population_series_scalar,
)


@pytest.fixture
def trace():
    config = OvernetTraceConfig(hosts=60, epochs=40)
    return generate_overnet_trace(config=config, seed=3)


class TestLoaderRoundtrip:
    def test_npz_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace_npz(path, trace, 1200.0)
        loaded = load_trace_npz(path)
        original, keys = trace.to_matrix(1200.0)
        rebuilt, loaded_keys = loaded.to_matrix(1200.0)
        assert (original == rebuilt).all()
        assert [str(k) for k in keys] == list(loaded_keys)

    def test_text_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace_text(path, trace, 1200.0)
        loaded = load_trace_text(path)
        original, _ = trace.to_matrix(1200.0)
        rebuilt, _ = loaded.to_matrix(1200.0)
        assert (original == rebuilt).all()

    def test_text_format_is_human_readable(self, trace, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace_text(path, trace, 1200.0)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("avmem-trace-v1")
        assert set(lines[3]) <= {"0", "1"}

    def test_text_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-trace epochs=1 nodes=1 epoch_seconds=10\na\n1\n")
        with pytest.raises(ValueError, match="magic"):
            load_trace_text(path)

    def test_text_truncated_rejected(self, trace, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace_text(path, trace, 1200.0)
        content = path.read_text().splitlines()
        path.write_text("\n".join(content[:-5]) + "\n")
        with pytest.raises(ValueError, match="epochs"):
            load_trace_text(path)

    def test_text_bad_row_width_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "avmem-trace-v1 epochs=1 nodes=2 epoch_seconds=10\na b\n111\n"
        )
        with pytest.raises(ValueError, match="columns"):
            load_trace_text(path)


class TestStats:
    def test_availability_samples_shape(self, trace):
        samples = availability_samples(trace)
        assert samples.shape == (60,)
        assert ((0 <= samples) & (samples <= 1)).all()

    def test_online_samples_match_online_count(self, trace):
        t = trace.horizon / 2
        samples = online_availability_samples(trace, t)
        assert len(samples) == trace.online_count(t)

    def test_population_series(self, trace):
        times, counts = online_population_series(trace, 1200.0)
        assert len(times) == len(counts)
        assert (counts >= 0).all()
        assert (counts <= 60).all()

    def test_population_series_rejects_bad_dt(self, trace):
        with pytest.raises(ValueError):
            online_population_series(trace, 0.0)

    def test_churn_events_nonnegative(self, trace):
        events = churn_events_per_epoch(trace, 1200.0)
        assert len(events) == 39  # epochs - 1
        assert (events >= 0).all()

    def test_churn_events_exist(self, trace):
        events = churn_events_per_epoch(trace, 1200.0)
        assert events.sum() > 0  # the trace actually churns

    def test_summary_consistency(self, trace):
        summary = summarize_trace(trace)
        assert summary.node_count == 60
        assert summary.horizon == trace.horizon
        assert 0.0 <= summary.fraction_below_030 <= 1.0
        assert summary.total_sessions > 0
        assert summary.mean_session_seconds > 0

    def test_summary_as_dict(self, trace):
        data = summarize_trace(trace).as_dict()
        assert "mean_availability" in data
        assert "mean_online_population" in data


class TestBatchScalarParity:
    """The timeline batch paths must agree with the scalar fallbacks."""

    def test_population_series_parity(self, trace):
        times_batch, counts_batch = online_population_series(trace, 1800.0)
        times_scalar, counts_scalar = online_population_series_scalar(trace, 1800.0)
        np.testing.assert_array_equal(times_batch, times_scalar)
        np.testing.assert_array_equal(counts_batch, counts_scalar)

    def test_population_series_scalar_rejects_bad_dt(self, trace):
        with pytest.raises(ValueError):
            online_population_series_scalar(trace, 0.0)

    def test_churn_events_parity(self, trace):
        batch = churn_events_per_epoch(trace, 1200.0)
        scalar = churn_events_per_epoch_scalar(trace, 1200.0)
        np.testing.assert_array_equal(batch, scalar)

    def test_churn_events_parity_off_grid_epoch(self, trace):
        batch = churn_events_per_epoch(trace, 1700.0)
        scalar = churn_events_per_epoch_scalar(trace, 1700.0)
        np.testing.assert_array_equal(batch, scalar)

    def test_churn_events_scalar_rejects_bad_epoch(self, trace):
        with pytest.raises(ValueError):
            churn_events_per_epoch_scalar(trace, -1.0)
