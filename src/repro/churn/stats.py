"""Trace statistics: availability histograms, population series, churn rates.

These drive Fig 2(a) (availability distribution of online nodes) and the
trace-sanity assertions in the test suite, and supply the discretized
sample from which :class:`repro.core.availability.AvailabilityPdf` is
fit — the paper's "PDF collected and analyzed offline by a crawler".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.churn.trace import ChurnTrace

__all__ = [
    "TraceSummary",
    "summarize_trace",
    "availability_samples",
    "online_availability_samples",
    "online_population_series",
    "churn_events_per_epoch",
]

NodeKey = Hashable


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of one churn trace."""

    node_count: int
    horizon: float
    mean_availability: float
    median_availability: float
    fraction_below_030: float
    mean_online_population: float
    mean_session_seconds: float
    total_sessions: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "node_count": float(self.node_count),
            "horizon": self.horizon,
            "mean_availability": self.mean_availability,
            "median_availability": self.median_availability,
            "fraction_below_030": self.fraction_below_030,
            "mean_online_population": self.mean_online_population,
            "mean_session_seconds": self.mean_session_seconds,
            "total_sessions": float(self.total_sessions),
        }


def availability_samples(trace: ChurnTrace, until: Optional[float] = None) -> np.ndarray:
    """Per-host raw availabilities measured up to ``until`` (default horizon)."""
    values = trace.availabilities(until)
    return np.array([values[k] for k in trace.nodes], dtype=float)


def online_availability_samples(trace: ChurnTrace, time: float) -> np.ndarray:
    """Availabilities (measured up to ``time``) of the nodes online at ``time``.

    This is exactly the population Fig 2(a) histograms.
    """
    rows = np.flatnonzero(trace.online_mask(time))
    return trace.timeline.availability_array(rows, time)


def online_population_series(
    trace: ChurnTrace, sample_seconds: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(times, online-counts) sampled every ``sample_seconds``.

    Answers through the columnar timeline's
    :meth:`~repro.churn.timeline.ChurnTimeline.online_count_series` —
    two ``searchsorted`` passes for the whole series instead of one
    population stab per sample (``tests/reference/churn_stats.py`` holds
    the per-sample form it is parity-tested against).
    """
    if sample_seconds <= 0:
        raise ValueError(f"sample_seconds must be positive, got {sample_seconds}")
    times = np.arange(0.0, trace.horizon + 1e-9, sample_seconds)
    counts = trace.timeline.online_count_series(times).astype(float)
    return times, counts


def churn_events_per_epoch(trace: ChurnTrace, epoch_seconds: float) -> np.ndarray:
    """Number of presence flips (joins + leaves) in each epoch.

    Presence is sampled at epoch midpoints through the timeline's
    vectorized :meth:`~repro.churn.timeline.ChurnTimeline.online_mask_matrix`
    batch path (parity-tested against the per-node form in
    ``tests/reference/churn_stats.py``).
    """
    matrix, _ = trace.to_matrix(epoch_seconds)
    if matrix.shape[0] < 2:
        return np.zeros(0, dtype=int)
    flips = matrix[1:] != matrix[:-1]
    return flips.sum(axis=1)


def summarize_trace(trace: ChurnTrace, population_samples: int = 64) -> TraceSummary:
    """Compute a :class:`TraceSummary` (used by tests and the CLI)."""
    avail = availability_samples(trace)
    sample_dt = trace.horizon / max(1, population_samples)
    __, counts = online_population_series(trace, sample_dt)
    timeline = trace.timeline
    session_lengths = timeline.ends - timeline.starts
    return TraceSummary(
        node_count=trace.node_count,
        horizon=trace.horizon,
        mean_availability=float(avail.mean()) if avail.size else float("nan"),
        median_availability=float(np.median(avail)) if avail.size else float("nan"),
        fraction_below_030=float((avail < 0.30).mean()) if avail.size else float("nan"),
        mean_online_population=float(counts.mean()) if counts.size else float("nan"),
        mean_session_seconds=(
            float(np.mean(session_lengths)) if session_lengths.size else float("nan")
        ),
        total_sessions=timeline.session_count,
    )
