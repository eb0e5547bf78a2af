"""Numeric helpers: interval math, empirical CDFs, and summary statistics."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "clamp",
    "interval_overlap",
    "interval_distance",
    "point_to_interval_distance",
    "empirical_cdf",
    "quantile",
    "mean_or_nan",
    "summarize",
    "log_at_least_one",
]


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into ``[lo, hi]``."""
    return lo if value < lo else hi if value > hi else value


def interval_overlap(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Length of the overlap between closed intervals ``a`` and ``b``."""
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return max(0.0, hi - lo)


def interval_distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Gap between two closed intervals (0 when they touch or overlap)."""
    if a[0] > b[1]:
        return a[0] - b[1]
    if b[0] > a[1]:
        return b[0] - a[1]
    return 0.0


def point_to_interval_distance(x: float, interval: Tuple[float, float]) -> float:
    """Distance from a point to a closed interval (0 when inside).

    This is the "Euclidean distance between the edge of R and the
    availability" used by the paper's greedy metric and its simulated
    annealing temperature.
    """
    lo, hi = interval
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return 0.0


def empirical_cdf(samples: Iterable[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(xs, ps)`` such that ``P[X <= xs[i]] = ps[i]``.

    The returned ``xs`` are the sorted unique sample values; ``ps`` is
    monotone non-decreasing and ends at 1.0.  Empty input yields two empty
    arrays.
    """
    data = np.asarray(sorted(samples), dtype=float)
    if data.size == 0:
        return np.array([]), np.array([])
    xs, counts = np.unique(data, return_counts=True)
    ps = np.cumsum(counts) / data.size
    return xs, ps


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; NaN for empty input.

    The level is checked first, so a bad ``q`` raises whether or not the
    sample happens to be empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        return float("nan")
    return float(np.quantile(data, q))


def mean_or_nan(samples: Sequence[float]) -> float:
    """Arithmetic mean, or NaN for empty input (never raises)."""
    data = list(samples)
    if not data:
        return float("nan")
    return float(np.mean(np.asarray(data, dtype=float)))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """count/mean/median/p90/min/max of a non-empty sample."""
    data = np.asarray(values, dtype=float)
    median, p90 = np.quantile(data, (0.5, 0.9))
    return {
        "count": float(data.size),
        "mean": float(data.mean()),
        "median": float(median),
        "p90": float(p90),
        "min": float(data.min()),
        "max": float(data.max()),
    }


def log_at_least_one(value: float) -> float:
    """``max(ln(value), 1.0)`` — the paper's ``log(N*)`` factors are meant as
    neighbor-count scalers, so we floor them at 1 to stay meaningful for
    tiny test systems where ``ln(N) < 1``.
    """
    if value <= 1.0:
        return 1.0
    return max(1.0, math.log(value))
