"""Per-message latency models for the simulated network.

The paper draws each virtual-hop latency uniformly from [20 ms, 80 ms]
(Section 4.2, retried-greedy experiments).  :class:`UniformLatency` with
the default bounds reproduces that; the other models support sensitivity
studies.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "LatencyModel",
    "UniformLatency",
    "ConstantLatency",
    "LogNormalLatency",
    "PAPER_HOP_LATENCY",
]


class LatencyModel(abc.ABC):
    """Strategy producing a one-way delivery latency per message, in seconds.

    Models implement the vectorized :meth:`sample_array`
    (:meth:`Network.send_batch <repro.sim.network.Network.send_batch>`
    draws a whole send cohort in one call); the scalar :meth:`sample`
    delegates to it, so a cohort of ``n`` draws consumes the rng stream
    exactly like ``n`` successive scalar draws — which is what makes
    ``send_batch`` a loop of ``send``.
    """

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one latency (seconds, > 0)."""
        return float(self.sample_array(rng, 1)[0])

    @abc.abstractmethod
    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` latencies in one vectorized pass (seconds, > 0)."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected latency in seconds (used by tests and reports)."""


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` seconds (handy in unit tests)."""

    def __init__(self, value: float):
        self.value = check_positive(value, "latency value")

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Deterministic: consumes no randomness, like the scalar path.
        return np.full(n, self.value, dtype=float)

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"ConstantLatency({self.value!r})"


class UniformLatency(LatencyModel):
    """Uniform latency on ``[low, high]`` seconds.

    Defaults are the paper's per-hop bounds: 20 ms to 80 ms.
    """

    def __init__(self, low: float = 0.020, high: float = 0.080):
        self.low = check_positive(low, "latency low bound")
        self.high = check_positive(high, "latency high bound")
        if self.high < self.low:
            raise ValueError(f"high must be >= low, got [{low!r}, {high!r}]")

    def sample(self, rng: np.random.Generator) -> float:
        # Value- and stream-identical to sample_array(rng, 1)[0], without
        # the per-call array allocation (singles are the anycast/ack hot
        # path).
        return float(rng.uniform(self.low, self.high))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"UniformLatency({self.low!r}, {self.high!r})"


class LogNormalLatency(LatencyModel):
    """Log-normal latency — heavier-tailed model for WAN sensitivity studies.

    Parameterized by the desired ``median`` (seconds) and the log-space
    standard deviation ``sigma``.
    """

    def __init__(self, median: float = 0.045, sigma: float = 0.5):
        self.median = check_positive(median, "latency median")
        self.sigma = check_non_negative(sigma, "latency sigma")
        self._mu = math.log(self.median)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self._mu, self.sigma))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self._mu, self.sigma, size=n)

    def mean(self) -> float:
        return self.median * math.exp(self.sigma**2 / 2.0)

    def __repr__(self) -> str:
        return f"LogNormalLatency(median={self.median!r}, sigma={self.sigma!r})"


#: The paper's per-hop model: uniform on [20 ms, 80 ms].
PAPER_HOP_LATENCY = UniformLatency(0.020, 0.080)
