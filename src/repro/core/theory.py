"""Closed-form predictions from Section 2.2 (Theorems 1-3).

These let tests and benchmarks check that the *implementation* matches
the *analysis*: expected sliver sizes, coverage uniformity, and the
O(log N*) bound of Theorem 3.  All integrals are evaluated numerically
over the discretized PDF, at sub-bin resolution.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.availability import AvailabilityPdf
from repro.core.predicates import AvmemPredicate, SliverKind
from repro.util.mathx import log_at_least_one

__all__ = [
    "expected_vertical_size",
    "expected_horizontal_size",
    "expected_degree",
    "theorem1_band_counts",
    "theorem3_bound",
]

_GRID = 2048


def _integration_grid() -> Tuple[np.ndarray, float]:
    """Midpoint grid over [0, 1]."""
    da = 1.0 / _GRID
    grid = (np.arange(_GRID) + 0.5) * da
    return grid, da


def expected_vertical_size(predicate: AvmemPredicate, av_x: float) -> float:
    """E[#VS neighbors] = ∫_{|a-av_x|≥ε} f_vs(av_x, a)·N*·p(a) da."""
    grid, da = _integration_grid()
    pdf = predicate.pdf
    mask = np.abs(grid - av_x) >= predicate.epsilon
    if not mask.any():
        return 0.0
    thresholds = predicate.vertical.thresholds(av_x, grid[mask], pdf)
    density = np.asarray(pdf.density(grid[mask]))
    return float(np.sum(thresholds * pdf.n_star * density) * da)


def expected_horizontal_size(predicate: AvmemPredicate, av_x: float) -> float:
    """E[#HS neighbors] = ∫_{|a-av_x|<ε} f_hs(av_x, a)·N*·p(a) da."""
    grid, da = _integration_grid()
    pdf = predicate.pdf
    mask = np.abs(grid - av_x) < predicate.epsilon
    if not mask.any():
        return 0.0
    thresholds = predicate.horizontal.thresholds(av_x, grid[mask], pdf)
    density = np.asarray(pdf.density(grid[mask]))
    return float(np.sum(thresholds * pdf.n_star * density) * da)


def expected_degree(predicate: AvmemPredicate, av_x: float) -> float:
    """Expected total (HS + VS) out-degree of a node at ``av_x``."""
    return expected_vertical_size(predicate, av_x) + expected_horizontal_size(
        predicate, av_x
    )


def theorem1_band_counts(
    predicate: AvmemPredicate, av_x: float, band_width: float = 0.1
) -> Dict[Tuple[float, float], float]:
    """Expected VS neighbors per availability band — Theorem 1 says these
    are equal (for bands outside ±ε of ``av_x``) under rule I.B.

    Returns ``{(lo, hi): expected_count}`` for bands fully outside the
    horizontal region.
    """
    grid, da = _integration_grid()
    pdf = predicate.pdf
    out: Dict[Tuple[float, float], float] = {}
    edges = np.arange(0.0, 1.0 + 1e-9, band_width)
    for lo, hi in zip(edges[:-1], edges[1:]):
        # Skip bands that intersect the horizontal region: those draws use
        # the horizontal rule instead.
        if not (hi <= av_x - predicate.epsilon or lo >= av_x + predicate.epsilon):
            continue
        mask = (grid >= lo) & (grid < hi)
        thresholds = predicate.vertical.thresholds(av_x, grid[mask], pdf)
        density = np.asarray(pdf.density(grid[mask]))
        out[(float(lo), float(hi))] = float(
            np.sum(thresholds * pdf.n_star * density) * da
        )
    return out


def theorem3_bound(pdf: AvailabilityPdf, av_x: float, epsilon: float, c1: float) -> float:
    """Theorem 3(i): E[degree] ≤ (N*_av(x) − 1) + c1·log(N*)."""
    return pdf.n_star_av(av_x, epsilon) - 1.0 + c1 * log_at_least_one(pdf.n_star)
