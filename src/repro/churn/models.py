"""Stochastic churn models that generate epoch-level presence.

Each node is a two-state (online/offline) Markov chain sampled once per
measurement epoch, parameterized by its long-run target availability and
its mean online-session length.  An optional diurnal profile modulates
the chain so the online population swells and shrinks with time of day —
the qualitative pattern p2p measurement studies (including the Overnet
study the paper uses) report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.util.validation import check_positive, check_probability

__all__ = ["MarkovChurnModel", "DiurnalProfile", "sample_epoch_matrix", "scaled_session_epochs"]

#: uniforms :func:`sample_epoch_matrix` holds at once (32 MiB of float64)
_UNIFORM_BUDGET = 1 << 22


@dataclass(frozen=True)
class DiurnalProfile:
    """Sinusoidal day/night modulation of the probability of being online.

    ``amplitude`` ∈ [0, 1) scales a cosine with a 24-hour period;
    ``peak_hour`` places its maximum.  The multiplier applied to a node's
    on-probability at epoch time ``t`` is ``1 + amplitude·cos(...)``,
    normalized to keep the daily mean multiplier at 1 so long-run
    availabilities stay calibrated.
    """

    amplitude: float = 0.0
    peak_hour: float = 21.0
    period_seconds: float = 86400.0

    def __post_init__(self):
        check_probability(self.amplitude, "diurnal amplitude")
        check_positive(self.period_seconds, "diurnal period")

    def multiplier(self, time_seconds: float) -> float:
        """Multiplier for the on-probability at an absolute trace time."""
        if self.amplitude == 0.0:
            return 1.0
        phase = 2.0 * math.pi * (
            (time_seconds / self.period_seconds) - (self.peak_hour * 3600.0 / self.period_seconds)
        )
        return 1.0 + self.amplitude * math.cos(phase)


class MarkovChurnModel:
    """Per-node two-state Markov chain over measurement epochs.

    Parameters
    ----------
    availability:
        Target long-run fraction of epochs online, in (0, 1).
    mean_online_epochs:
        Mean length of an online run, in epochs (>= 1).  Together with
        ``availability`` this fixes both transition probabilities:
        ``p_off = 1/mean_online_epochs`` (leave the online state) and,
        from stationarity ``a·p_off = (1-a)·p_on``,
        ``p_on = a·p_off/(1-a)`` (join from offline), clamped to [0, 1].
    """

    def __init__(self, availability: float, mean_online_epochs: float = 6.0):
        if not 0.0 < availability < 1.0:
            # Degenerate nodes (always on / always off) are handled exactly.
            if availability not in (0.0, 1.0):
                raise ValueError(
                    f"availability must be in [0, 1], got {availability!r}"
                )
        check_positive(mean_online_epochs, "mean_online_epochs")
        if mean_online_epochs < 1.0:
            raise ValueError(
                f"mean_online_epochs must be >= 1 epoch, got {mean_online_epochs!r}"
            )
        self.availability = float(availability)
        self.mean_online_epochs = float(mean_online_epochs)
        if availability in (0.0, 1.0):
            self.p_leave_online = 0.0
            self.p_join_from_offline = 0.0
        else:
            self.p_leave_online = 1.0 / self.mean_online_epochs
            self.p_join_from_offline = min(
                1.0, self.availability * self.p_leave_online / (1.0 - self.availability)
            )

    def sample_presence(
        self,
        epochs: int,
        rng: np.random.Generator,
        epoch_seconds: float = 1200.0,
        diurnal: Optional[DiurnalProfile] = None,
    ) -> np.ndarray:
        """Sample a boolean presence vector of length ``epochs``."""
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        out = np.zeros(epochs, dtype=bool)
        if self.availability == 0.0:
            return out
        if self.availability == 1.0:
            out[:] = True
            return out
        uniforms = rng.random(epochs)
        online = uniforms[0] < self.availability  # stationary initial state
        out[0] = online
        for e in range(1, epochs):
            mult = diurnal.multiplier(e * epoch_seconds) if diurnal is not None else 1.0
            if online:
                # Day-time boost lowers the chance of leaving; clamp keeps it a probability.
                p_leave = min(1.0, max(0.0, self.p_leave_online / mult))
                online = uniforms[e] >= p_leave
            else:
                p_join = min(1.0, max(0.0, self.p_join_from_offline * mult))
                online = uniforms[e] < p_join
            out[e] = online
        return out


def scaled_session_epochs(
    availability: float, base_epochs: float, cap_epochs: float
) -> float:
    """Mean online-session length as a function of availability.

    Measurement studies (including the Overnet data the paper uses) find
    that high-availability hosts stay up for long stretches while
    low-availability hosts flap: churn is concentrated in the unstable
    population.  We model mean session length as
    ``base / (1 − a)`` (capped): a 0.5-availability node averages
    ``2·base`` epochs per session, a 0.9-availability node ``10·base``.
    """
    if availability >= 1.0:
        return cap_epochs
    scaled = base_epochs / max(1.0 - availability, 1e-6)
    return float(min(max(scaled, base_epochs), cap_epochs))


def sample_epoch_matrix(
    availabilities: Sequence[float],
    epochs: int,
    rng: np.random.Generator,
    mean_online_epochs: float = 3.0,
    epoch_seconds: float = 1200.0,
    diurnal: Optional[DiurnalProfile] = None,
    diurnal_fraction: float = 0.0,
    session_scaling: bool = True,
) -> np.ndarray:
    """Sample an ``epochs × nodes`` presence matrix.

    ``diurnal_fraction`` of the nodes (chosen at random) follow the
    diurnal profile; the rest churn time-homogeneously.  Measurement
    studies find only part of a p2p population is diurnal.

    With ``session_scaling`` (default), each node's mean session length
    grows with its availability per :func:`scaled_session_epochs` —
    stable hosts stay up for long stretches, so the instantaneous
    probability that a high-availability host is online matches its
    long-run availability even over day-scale windows.

    Every node is the chain :class:`MarkovChurnModel` describes, stepped
    for all nodes at once: one ``(nodes, epochs)`` uniform draw — the
    same values, in the same generator order, as one
    :meth:`MarkovChurnModel.sample_presence` call per node (degenerate
    0/1 availabilities draw nothing) — then one vector step per epoch.
    The matrix and the generator's final state are bit-identical to that
    per-node loop (``tests/reference/churn_models.py``).
    """
    check_probability(diurnal_fraction, "diurnal_fraction")
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    avs = np.asarray(availabilities, dtype=float)
    n = avs.size
    if not ((avs >= 0.0) & (avs <= 1.0)).all():
        raise ValueError("availabilities must be in [0, 1]")
    check_positive(mean_online_epochs, "mean_online_epochs")
    matrix = np.zeros((epochs, n), dtype=bool)
    diurnal_mask = rng.random(n) < diurnal_fraction if diurnal is not None else np.zeros(n, dtype=bool)
    if session_scaling:
        # scaled_session_epochs, elementwise (same IEEE operations).
        cap = max(float(epochs) / 3.0, mean_online_epochs)
        scaled = mean_online_epochs / np.maximum(1.0 - avs, 1e-6)
        mean_epochs = np.minimum(np.maximum(scaled, mean_online_epochs), cap)
        mean_epochs[avs >= 1.0] = cap
    else:
        mean_epochs = np.full(n, float(mean_online_epochs))
    if (mean_epochs < 1.0).any():
        raise ValueError(
            f"mean_online_epochs must be >= 1 epoch, got {float(mean_epochs.min())!r}"
        )
    matrix[:, avs == 1.0] = True
    live = np.flatnonzero((avs > 0.0) & (avs < 1.0))
    # Consecutive node chunks draw consecutive stretches of the stream,
    # so chunking bounds the uniform block without changing any value.
    chunk = max(1, _UNIFORM_BUDGET // epochs)
    for start in range(0, live.size, chunk):
        cols = live[start : start + chunk]
        a = avs[cols]
        p_leave = 1.0 / mean_epochs[cols]
        p_join = np.minimum(1.0, a * p_leave / (1.0 - a))
        follows_diurnal = diurnal_mask[cols]
        any_diurnal = bool(follows_diurnal.any())
        uniforms = rng.random((cols.size, epochs))
        online = uniforms[:, 0] < a  # stationary initial state
        matrix[0, cols] = online
        leave, join = p_leave, p_join
        for e in range(1, epochs):
            if any_diurnal:
                # The multiplier stays a scalar per epoch (math.cos), as
                # in DiurnalProfile; non-diurnal nodes get exactly 1.0.
                mult = np.where(follows_diurnal, diurnal.multiplier(e * epoch_seconds), 1.0)
                # Day-time boost lowers the chance of leaving; the clamps
                # keep both probabilities in [0, 1].
                leave = np.minimum(1.0, np.maximum(0.0, p_leave / mult))
                join = np.minimum(1.0, np.maximum(0.0, p_join * mult))
            u = uniforms[:, e]
            online = np.where(online, u >= leave, u < join)
            matrix[e, cols] = online
    return matrix
