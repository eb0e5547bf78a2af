"""The per-sample / per-node scalar forms of ``repro.churn.stats``'s
``online_population_series`` and ``churn_events_per_epoch`` as they
shipped beside the vectorized ones; the vectorized functions must
return the same arrays."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.churn.trace import ChurnTrace


def online_population_series_scalar(
    trace: ChurnTrace, sample_seconds: float
) -> Tuple[np.ndarray, np.ndarray]:
    if sample_seconds <= 0:
        raise ValueError(f"sample_seconds must be positive, got {sample_seconds}")
    times = np.arange(0.0, trace.horizon + 1e-9, sample_seconds)
    counts = np.array([trace.online_count(t) for t in times], dtype=float)
    return times, counts


def churn_events_per_epoch_scalar(
    trace: ChurnTrace, epoch_seconds: float
) -> np.ndarray:
    if epoch_seconds <= 0:
        raise ValueError(f"epoch_seconds must be positive, got {epoch_seconds}")
    epochs = int(round(trace.horizon / epoch_seconds))
    if epochs < 2:
        return np.zeros(0, dtype=int)
    midpoints = (np.arange(epochs) + 0.5) * epoch_seconds
    flips = np.zeros(epochs - 1, dtype=np.int64)
    for node in trace.nodes:
        schedule = trace.schedule(node)
        presence = np.array(
            [schedule.is_online(t) for t in midpoints], dtype=bool
        )
        flips += presence[1:] != presence[:-1]
    return flips
