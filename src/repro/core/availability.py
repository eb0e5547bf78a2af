"""Discretized availability PDF and the derived population quantities.

Section 2.1 assumes "the PDF of the availability distribution of the
system … collected and analyzed offline by either a crawler or a central
server", plus an expected system size ``N*``, communicated to all nodes
consistently at pre-run time.  The predicates then use three derived
quantities:

* ``p(a)`` — the availability density at ``a`` (``p(a)·da`` = fraction of
  nodes in an infinitesimal band);
* ``N*_av(x) = N* · ∫_{av(x)-ε}^{av(x)+ε} p(a) da`` — expected online
  nodes near ``x``;
* ``N*min_av(x)`` — the minimum expected online nodes in any width-ε
  window wholly inside ``[av(x)-ε, av(x)+ε]``.

:class:`AvailabilityPdf` implements the discretized ("created from a
small sample set of nodes", §2.1) histogram version of all three.

**Online weighting.**  The predicate math treats ``N*·p(a)·da`` as the
expected number of *online* nodes in the band.  A host with availability
``a`` is online a fraction ``a`` of the time, so the faithful density is
the availability-weighted one: ``p̃(a) ∝ p_hosts(a)·a`` with
``N* = Σ_i av(i)``.  :meth:`AvailabilityPdf.from_samples` applies that
weighting by default; pass ``online_weighted=False`` for the raw host
histogram (docs/architecture.md, "Predicates and slivers", discusses
this choice).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.util.validation import check_fraction_interval, check_positive

__all__ = ["AvailabilityPdf"]


class AvailabilityPdf:
    """Binned availability distribution with an attached system size ``N*``.

    Parameters
    ----------
    bin_fractions:
        Fraction of (online-weighted) population mass per bin; must sum
        to 1.  Bins partition [0, 1] uniformly.
    n_star:
        The expected online system size ``N*``.
    """

    def __init__(self, bin_fractions: Sequence[float], n_star: float):
        fractions = np.asarray(bin_fractions, dtype=float)
        if fractions.ndim != 1 or fractions.size == 0:
            raise ValueError("bin_fractions must be a non-empty 1-D sequence")
        if np.any(fractions < 0):
            raise ValueError("bin_fractions must be non-negative")
        total = float(fractions.sum())
        if total <= 0:
            raise ValueError("bin_fractions must have positive mass")
        self._fractions = fractions / total
        self.n_star = check_positive(n_star, "n_star")
        self._bins = fractions.size
        self._width = 1.0 / self._bins
        # p(a) per bin, read by the array path of density().
        self._density = self._fractions / self._width
        # Cumulative mass at bin edges enables O(1) interval integrals.
        self._cum = np.concatenate([[0.0], np.cumsum(self._fractions)])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls,
        samples: Sequence[float],
        bins: int = 20,
        n_star: Optional[float] = None,
        online_weighted: bool = True,
    ) -> "AvailabilityPdf":
        """Fit from per-host availability samples.

        With ``online_weighted`` (default) each host is weighted by its
        availability and ``N*`` defaults to ``Σ av(i)`` — the expected
        number of hosts online at a random instant.  Otherwise hosts get
        unit weight and ``N*`` defaults to the host count.
        """
        values = np.asarray(list(samples), dtype=float)
        if values.size == 0:
            raise ValueError("cannot fit a PDF from zero samples")
        if np.any((values < 0) | (values > 1)):
            raise ValueError("availability samples must lie in [0, 1]")
        if bins <= 0:
            raise ValueError(f"bins must be positive, got {bins}")
        weights = values if online_weighted else np.ones_like(values)
        if float(weights.sum()) <= 0:
            # Every host has availability 0; fall back to unweighted so
            # the PDF stays well-defined.
            weights = np.ones_like(values)
        counts, _ = np.histogram(values, bins=bins, range=(0.0, 1.0), weights=weights)
        if n_star is None:
            n_star = float(values.sum()) if online_weighted else float(values.size)
            n_star = max(n_star, 1.0)
        return cls(counts, n_star=n_star)

    @classmethod
    def uniform(cls, n_star: float, bins: int = 20) -> "AvailabilityPdf":
        """The homogeneous-availability PDF (predicate I.A's best case)."""
        return cls(np.ones(bins), n_star=n_star)

    # ------------------------------------------------------------------
    # Density / mass queries
    # ------------------------------------------------------------------
    @property
    def bins(self) -> int:
        return self._bins

    @property
    def bin_fractions(self) -> np.ndarray:
        return self._fractions.copy()

    def _bin_index(self, a: float) -> int:
        idx = int(a / self._width)
        return min(max(idx, 0), self._bins - 1)

    def density(self, a: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """``p(a)`` — piecewise-constant density (integrates to 1)."""
        if isinstance(a, np.ndarray):
            # The bin clamp of _bin_index, done in place on the integer
            # index array (np.clip's Python wrapper costs more than the
            # two ufuncs); the per-bin table holds fractions / width, so
            # every float equals the per-element division.
            idx = (a / self._width).astype(int)
            last = self._bins - 1
            if idx.ndim:
                np.minimum(idx, last, out=idx)
                np.maximum(idx, 0, out=idx)
            else:
                idx = min(max(int(idx), 0), last)
            return self._density[idx]
        check_fraction_interval(a, a, "availability")
        return float(self._fractions[self._bin_index(a)] / self._width)

    def fraction_in(self, lo: float, hi: float) -> float:
        """``∫_lo^hi p(a) da`` with bounds clamped into [0, 1]."""
        lo = max(0.0, min(1.0, lo))
        hi = max(0.0, min(1.0, hi))
        if hi <= lo:
            return 0.0
        return self._cum_at(hi) - self._cum_at(lo)

    def _cum_at(self, a: float) -> float:
        """Cumulative mass at ``a`` (linear within a bin)."""
        pos = a / self._width
        idx = min(int(pos), self._bins - 1)
        frac_in_bin = pos - idx
        return float(self._cum[idx] + self._fractions[idx] * min(frac_in_bin, 1.0))

    # ------------------------------------------------------------------
    # Paper quantities
    # ------------------------------------------------------------------
    def expected_online_in(self, lo: float, hi: float) -> float:
        """``N* · ∫_lo^hi p(a) da``."""
        return self.n_star * self.fraction_in(lo, hi)

    def n_star_av(self, availability: float, epsilon: float) -> float:
        """``N*_av(x)`` — expected online nodes within ±ε of ``availability``."""
        check_positive(epsilon, "epsilon")
        return self.expected_online_in(availability - epsilon, availability + epsilon)

    def n_star_min_av(
        self, availability: float, epsilon: float, resolution: int = 32
    ) -> float:
        """``N*min_av(x)`` — minimum expected online nodes in any width-ε
        window wholly inside ``[av(x)-ε, av(x)+ε]``.

        The interval is first clamped to the availability support [0, 1]
        (a window hanging past the support would spuriously report zero
        mass and blow the II.B threshold up to 1 for every node near the
        boundaries).  Evaluated by sliding the window start over
        ``resolution`` evenly spaced positions — the integral is
        piecewise linear in the start, so a modest resolution is exact up
        to bin granularity.
        """
        check_positive(epsilon, "epsilon")
        lo = max(0.0, availability - epsilon)
        hi = min(1.0, availability + epsilon)
        if hi - lo <= epsilon:
            # The clamped interval admits only one (possibly truncated)
            # window: the interval itself.
            return self.n_star * self.fraction_in(lo, hi)
        starts = np.linspace(lo, hi - epsilon, max(2, resolution))
        best = min(self.fraction_in(v, v + epsilon) for v in starts)
        return self.n_star * best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AvailabilityPdf(bins={self._bins}, n_star={self.n_star:.1f})"
