"""The per-node scalar form of ``repro.churn.models.sample_epoch_matrix``
as it shipped before the vectorization: one ``MarkovChurnModel`` and one
``rng.random(epochs)`` draw per non-degenerate node, one Python step per
(node, epoch).  The vectorized function must reproduce its matrix and
leave the generator in the same state."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.churn.models import DiurnalProfile, MarkovChurnModel, scaled_session_epochs
from repro.util.validation import check_probability


def sample_epoch_matrix_scalar(
    availabilities: Sequence[float],
    epochs: int,
    rng: np.random.Generator,
    mean_online_epochs: float = 3.0,
    epoch_seconds: float = 1200.0,
    diurnal: Optional[DiurnalProfile] = None,
    diurnal_fraction: float = 0.0,
    session_scaling: bool = True,
) -> np.ndarray:
    check_probability(diurnal_fraction, "diurnal_fraction")
    n = len(availabilities)
    matrix = np.zeros((epochs, n), dtype=bool)
    diurnal_mask = (
        rng.random(n) < diurnal_fraction if diurnal is not None else np.zeros(n, dtype=bool)
    )
    cap = max(float(epochs) / 3.0, mean_online_epochs)
    for i, availability in enumerate(availabilities):
        if session_scaling:
            mean_epochs = scaled_session_epochs(availability, mean_online_epochs, cap)
        else:
            mean_epochs = mean_online_epochs
        model = MarkovChurnModel(availability, mean_online_epochs=mean_epochs)
        profile = diurnal if diurnal_mask[i] else None
        matrix[:, i] = model.sample_presence(
            epochs, rng, epoch_seconds=epoch_seconds, diurnal=profile
        )
    return matrix
