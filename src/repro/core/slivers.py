"""The family of AVMEM sliver sub-predicates (Section 2.1).

Every rule maps ``(av(x), av(y), p(·))`` to an acceptance threshold in
[0, 1] which the framework compares against ``H(id(x), id(y))``:

Vertical sub-predicates (neighbors *outside* the ±ε band):

* **I.A ConstantVertical** — availability-independent probability; best
  for uniform availability PDFs.
* **I.B LogarithmicVertical** — ``min(c1·log(N*) / (N*·p(av(y))), 1)``;
  Theorem 1: uniform coverage of the availability space.
* **I.C LogarithmicDecreasingVertical** — I.B additionally divided by
  ``|av(y) − av(x)|``; Corollary 1.1: neighbor density decays with
  availability distance, Pastry/Chord-finger-style.

Horizontal sub-predicates (neighbors *inside* the ±ε band):

* **II.A ConstantHorizontal** — fixed probability.
* **II.B LogarithmicConstantHorizontal** —
  ``min(c2·log(N*_av(x)) / N*min_av(x), 1)``; Theorems 2 & 3:
  connectivity within the band with O(log) neighbors.

A note on I.A/II.A: the paper writes their right-hand sides as
``d = O(log N*)`` — a *neighbor count*, although ``f`` must be a
probability.  We therefore expose them as probabilities with
``from_target_count`` constructors that convert an intended expected
neighbor count into the corresponding probability (docs/architecture.md,
"Predicates and slivers").

**RandomUniformRule** (``f = p`` everywhere) yields the consistent
random overlay the paper compares against in Fig 10 ("a random overlay
graph similar to those created by … SCAMP, CYCLON, T-MAN").
"""

from __future__ import annotations

import abc
from typing import Union

import numpy as np

from repro.core.availability import AvailabilityPdf
from repro.util.mathx import log_at_least_one
from repro.util.validation import check_positive, check_probability

__all__ = [
    "VerticalSliverRule",
    "HorizontalSliverRule",
    "has_matrix_threshold",
    "has_candidate_bound",
    "ConstantVertical",
    "LogarithmicVertical",
    "LogarithmicDecreasingVertical",
    "ConstantHorizontal",
    "LogarithmicConstantHorizontal",
    "RandomUniformRule",
    "FunctionRule",
]

#: Densities below this are treated as "no nodes here": the 1/p(av(y))
#: factor is capped (threshold becomes 1.0), mirroring the min(·, 1.0)
#: in the paper's formulas.
_DENSITY_FLOOR = 1e-12


class _Rule(abc.ABC):
    """Shared base: scalar threshold plus an optionally-vectorized form."""

    #: How the candidate-generation stage (:mod:`repro.core.candidates`)
    #: can upper-bound this rule's threshold over a *bucket* of
    #: destination availabilities:
    #:
    #: * ``"const"`` — the threshold is one constant.
    #: * ``"src"`` — depends only on ``av(x)``: exact per-source scalar.
    #: * ``"dst"`` — depends only on ``av(y)``: exact per-destination
    #:   values (:meth:`candidate_values`), bounded by the bucket max.
    #: * ``"dst-distance"`` — per-destination base value divided by the
    #:   availability distance (I.C): bounded by bucket-max base over the
    #:   minimum possible distance.
    #: * ``None`` — no bound available; candidate generation is
    #:   unsupported for predicates using this rule (FunctionRule).
    CANDIDATE_BOUND = None

    @abc.abstractmethod
    def threshold(self, av_x: float, av_y: float, pdf: AvailabilityPdf) -> float:
        """The ``f(av(x), av(y))`` value in [0, 1]."""

    def candidate_values(self, avs: np.ndarray, pdf: AvailabilityPdf) -> np.ndarray:
        """Per-node values backing the declared :attr:`CANDIDATE_BOUND`
        (per-destination thresholds for ``"dst"``, uncapped base values
        for ``"dst-distance"``, per-source scalars for ``"src"``)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not participate in candidate generation"
        )

    def threshold_many(
        self, av_x: float, av_ys: np.ndarray, pdf: AvailabilityPdf
    ) -> np.ndarray:
        """Vectorized thresholds for many candidate neighbors (default:
        loop; subclasses override with closed-form array math)."""
        return np.array([self.threshold(av_x, float(a), pdf) for a in av_ys])

    def threshold_matrix(
        self, av_xs: np.ndarray, av_ys: np.ndarray, pdf: AvailabilityPdf
    ) -> np.ndarray:
        """Fully-batched thresholds for a block of sources against all
        candidates at once.

        Must return an array broadcastable to ``(len(av_xs), len(av_ys))``
        — rules that depend on only one operand may return a column
        (``(B, 1)``), a row (``(1, N)``), or a scalar array.  The default
        stacks :meth:`threshold_many` per source row; the concrete rules
        override it with closed-form broadcasts for the block-tiled
        overlay construction in ``AvmemPredicate.evaluate_all``.
        """
        return np.vstack(
            [self.threshold_many(float(ax), av_ys, pdf) for ax in av_xs]
        )


def has_matrix_threshold(rule: "_Rule") -> bool:
    """Whether ``rule`` provides a closed-form :meth:`_Rule.threshold_matrix`.

    Rules that only define the scalar/row forms (e.g. application
    :class:`FunctionRule` callables) may be partial functions — a
    distance-decaying vertical rule is never evaluated in-band by the
    scalar path — so the batched overlay construction must not evaluate
    them over the full N×N grid; it falls back to masked row evaluation
    instead.
    """
    return type(rule).threshold_matrix is not _Rule.threshold_matrix


def has_candidate_bound(rule: "_Rule") -> bool:
    """Whether the candidate-generation stage can bound ``rule`` over an
    availability bucket (see :attr:`_Rule.CANDIDATE_BOUND`)."""
    return rule.CANDIDATE_BOUND is not None


class VerticalSliverRule(_Rule):
    """Marker base class for vertical sub-predicates."""


class HorizontalSliverRule(_Rule):
    """Marker base class for horizontal sub-predicates."""


# ----------------------------------------------------------------------
# Vertical sub-predicates
# ----------------------------------------------------------------------
class ConstantVertical(VerticalSliverRule):
    """[I.A] availability-independent acceptance probability."""

    CANDIDATE_BOUND = "const"

    def __init__(self, probability: float):
        self.probability = check_probability(probability, "vertical probability")

    @classmethod
    def from_target_count(cls, d1: float, n_star: float) -> "ConstantVertical":
        """Probability yielding an expected ``d1`` vertical neighbors out of
        ``N*`` candidates (the paper's ``d1 = O(log N*)`` reading)."""
        check_positive(d1, "d1")
        check_positive(n_star, "n_star")
        return cls(min(1.0, d1 / n_star))

    def threshold(self, av_x: float, av_y: float, pdf: AvailabilityPdf) -> float:
        return self.probability

    def threshold_many(self, av_x, av_ys, pdf):
        return np.full(len(av_ys), self.probability)

    def threshold_matrix(self, av_xs, av_ys, pdf):
        return np.array(self.probability)

    def __repr__(self) -> str:
        return f"ConstantVertical(p={self.probability:.4g})"


class LogarithmicVertical(VerticalSliverRule):
    """[I.B] ``min(c1·log(N*) / (N*·p(av(y))), 1)`` — uniform coverage."""

    CANDIDATE_BOUND = "dst"

    def __init__(self, c1: float = 3.0):
        self.c1 = check_positive(c1, "c1")

    def candidate_values(self, avs, pdf):
        # Exact per-destination thresholds: the candidate stage bounds a
        # bucket by their max and re-filters hits against these same
        # floats, so the computation must match threshold_matrix — which
        # broadcasts exactly this threshold_many row.
        return self.threshold_many(0.0, np.asarray(avs, dtype=float), pdf)

    def threshold(self, av_x: float, av_y: float, pdf: AvailabilityPdf) -> float:
        density = pdf.density(av_y)
        if density <= _DENSITY_FLOOR:
            return 1.0
        value = self.c1 * log_at_least_one(pdf.n_star) / (pdf.n_star * density)
        return min(value, 1.0)

    def threshold_many(self, av_x, av_ys, pdf):
        densities = np.asarray(pdf.density(np.asarray(av_ys, dtype=float)))
        numerator = self.c1 * log_at_least_one(pdf.n_star)
        with np.errstate(divide="ignore"):
            values = numerator / (pdf.n_star * densities)
        values[densities <= _DENSITY_FLOOR] = 1.0
        return np.minimum(values, 1.0)

    def threshold_matrix(self, av_xs, av_ys, pdf):
        # Depends only on av(y): one row vector broadcast over sources.
        return self.threshold_many(0.0, np.asarray(av_ys, dtype=float), pdf)[None, :]

    def __repr__(self) -> str:
        return f"LogarithmicVertical(c1={self.c1})"


class LogarithmicDecreasingVertical(VerticalSliverRule):
    """[I.C] I.B divided by ``|av(y) − av(x)|`` — exponentially-spaced
    long links, Pastry/Chord-style (Corollary 1.1)."""

    CANDIDATE_BOUND = "dst-distance"

    def __init__(self, c1: float = 3.0):
        self.c1 = check_positive(c1, "c1")

    def candidate_values(self, avs, pdf):
        # Uncapped base values (the numerator over N*·density, before the
        # distance division): degenerate densities map to +inf so any
        # bucket containing them bounds to 1.0.
        avs = np.asarray(avs, dtype=float)
        densities = np.asarray(pdf.density(avs))
        numerator = self.c1 * log_at_least_one(pdf.n_star)
        with np.errstate(divide="ignore"):
            values = numerator / (pdf.n_star * densities)
        values[densities <= _DENSITY_FLOOR] = np.inf
        return values

    def pair_threshold_values(self, av_xs, av_ys, pdf):
        """Elementwise thresholds for paired ``(av_x, av_y)`` arrays,
        float-identical to the corresponding :meth:`threshold_matrix`
        entries (same expression, elementwise) — used by the candidate
        stage's exact hit filter."""
        av_xs = np.asarray(av_xs, dtype=float)
        av_ys = np.asarray(av_ys, dtype=float)
        densities = np.asarray(pdf.density(av_ys))
        distances = np.abs(av_ys - av_xs)
        numerator = self.c1 * log_at_least_one(pdf.n_star)
        degenerate = (densities <= _DENSITY_FLOOR) | (distances <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = numerator / (pdf.n_star * densities * distances)
        values[degenerate] = 1.0
        return np.minimum(values, 1.0)

    def threshold(self, av_x: float, av_y: float, pdf: AvailabilityPdf) -> float:
        density = pdf.density(av_y)
        distance = abs(av_y - av_x)
        if density <= _DENSITY_FLOOR or distance <= 0.0:
            return 1.0
        value = self.c1 * log_at_least_one(pdf.n_star) / (pdf.n_star * density * distance)
        return min(value, 1.0)

    def threshold_many(self, av_x, av_ys, pdf):
        av_ys = np.asarray(av_ys, dtype=float)
        densities = np.asarray(pdf.density(av_ys))
        distances = np.abs(av_ys - av_x)
        numerator = self.c1 * log_at_least_one(pdf.n_star)
        degenerate = (densities <= _DENSITY_FLOOR) | (distances <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = numerator / (pdf.n_star * densities * distances)
        values[degenerate] = 1.0
        return np.minimum(values, 1.0)

    def threshold_matrix(self, av_xs, av_ys, pdf):
        av_xs = np.asarray(av_xs, dtype=float)
        av_ys = np.asarray(av_ys, dtype=float)
        densities = np.asarray(pdf.density(av_ys))[None, :]
        distances = np.abs(av_ys[None, :] - av_xs[:, None])
        numerator = self.c1 * log_at_least_one(pdf.n_star)
        degenerate = (densities <= _DENSITY_FLOOR) | (distances <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = numerator / (pdf.n_star * densities * distances)
        values[degenerate] = 1.0
        return np.minimum(values, 1.0)

    def __repr__(self) -> str:
        return f"LogarithmicDecreasingVertical(c1={self.c1})"


# ----------------------------------------------------------------------
# Horizontal sub-predicates
# ----------------------------------------------------------------------
class ConstantHorizontal(HorizontalSliverRule):
    """[II.A] fixed acceptance probability within the ±ε band."""

    CANDIDATE_BOUND = "const"

    def __init__(self, probability: float):
        self.probability = check_probability(probability, "horizontal probability")

    @classmethod
    def from_target_count(
        cls, d2: float, n_star_av: float
    ) -> "ConstantHorizontal":
        """Probability yielding an expected ``d2`` horizontal neighbors out
        of the ``N*_av(x)`` candidates in the band."""
        check_positive(d2, "d2")
        check_positive(n_star_av, "n_star_av")
        return cls(min(1.0, d2 / n_star_av))

    def threshold(self, av_x: float, av_y: float, pdf: AvailabilityPdf) -> float:
        return self.probability

    def threshold_many(self, av_x, av_ys, pdf):
        return np.full(len(av_ys), self.probability)

    def threshold_matrix(self, av_xs, av_ys, pdf):
        return np.array(self.probability)

    def __repr__(self) -> str:
        return f"ConstantHorizontal(p={self.probability:.4g})"


class LogarithmicConstantHorizontal(HorizontalSliverRule):
    """[II.B] ``min(c2·log(N*_av(x)) / N*min_av(x), 1)``.

    The threshold depends only on ``av(x)`` (plus the global ε baked into
    the surrounding predicate's band test).  It is evaluated on a 1e-3
    availability grid — ``av(x)`` rounded to the nearest grid point, far
    below bin resolution for a piecewise-linear function — which keeps
    it a pure function of ``av(x)`` (every party computes the same
    value, whatever it evaluated before) while giving the discovery loop
    near-perfect cache reuse and the batched forms at most 1001 scalar
    evaluations per PDF.
    """

    CANDIDATE_BOUND = "src"

    def __init__(self, c2: float = 1.0, epsilon: float = 0.1):
        self.c2 = check_positive(c2, "c2")
        self.epsilon = check_positive(epsilon, "epsilon")
        self._cache: dict = {}

    def candidate_values(self, avs, pdf):
        # Per-*source* thresholds, float-identical to per-source
        # ``threshold`` calls: np.rint and round() both round the same
        # product half-to-even, so both land on the same grid point.
        grid = np.rint(np.asarray(avs, dtype=float) * 1000.0)
        points, inverse = np.unique(grid, return_inverse=True)
        values = np.array(
            [self.threshold(point / 1000.0, 0.0, pdf) for point in points.tolist()]
        )
        return values[inverse]

    def threshold(self, av_x: float, av_y: float, pdf: AvailabilityPdf) -> float:
        point = round(av_x * 1000.0)
        key = (id(pdf), point)
        cached = self._cache.get(key)
        if cached is None:
            at = point / 1000.0
            n_av = pdf.n_star_av(at, self.epsilon)
            n_min = pdf.n_star_min_av(at, self.epsilon)
            if n_min <= 0.0:
                cached = 1.0
            else:
                cached = min(self.c2 * log_at_least_one(n_av) / n_min, 1.0)
            if len(self._cache) > 65536:
                self._cache.clear()
            self._cache[key] = cached
        return cached

    def threshold_many(self, av_x, av_ys, pdf):
        return np.full(len(av_ys), self.threshold(av_x, 0.0, pdf))

    def threshold_matrix(self, av_xs, av_ys, pdf):
        # Depends only on av(x): one column vector broadcast over
        # candidates.
        return self.candidate_values(av_xs, pdf)[:, None]

    def __repr__(self) -> str:
        return f"LogarithmicConstantHorizontal(c2={self.c2}, epsilon={self.epsilon})"


# ----------------------------------------------------------------------
# Application-specified rules
# ----------------------------------------------------------------------
class FunctionRule(VerticalSliverRule, HorizontalSliverRule):
    """An application-specified sub-predicate (Section 1.3's headline:
    "AVMEM allows arbitrary classes of application-specified predicates").

    Wraps any pure callable ``f(av_x, av_y, pdf) -> value`` into a sliver
    rule; the returned value is clamped into [0, 1].  The callable must
    be deterministic — it becomes part of the *consistent* predicate, so
    every node (and every verifier) has to compute the same threshold
    from the same inputs.

    >>> prefer_stable = FunctionRule(lambda ax, ay, pdf: ay**2, name="av^2")
    """

    def __init__(self, fn, name: str = "custom"):
        if not callable(fn):
            raise TypeError(f"fn must be callable, got {fn!r}")
        self._fn = fn
        self.name = str(name)

    def threshold(self, av_x: float, av_y: float, pdf: AvailabilityPdf) -> float:
        value = float(self._fn(av_x, av_y, pdf))
        if value != value:  # NaN from the application callable
            raise ValueError(f"custom rule {self.name!r} returned NaN")
        return min(1.0, max(0.0, value))

    def __repr__(self) -> str:
        return f"FunctionRule({self.name!r})"


# ----------------------------------------------------------------------
# Random baseline
# ----------------------------------------------------------------------
class RandomUniformRule(VerticalSliverRule, HorizontalSliverRule):
    """``f(·,·) = p`` — the consistent random overlay (SCAMP/CYCLON-like
    degree profile, but verifiable).  Usable as either sliver rule; using
    it for both gives the Fig 10 baseline graph."""

    CANDIDATE_BOUND = "const"

    def __init__(self, probability: float):
        self.probability = check_probability(probability, "random probability")

    @classmethod
    def matching_expected_degree(cls, degree: float, n_star: float) -> "RandomUniformRule":
        """The ``p`` giving an expected ``degree`` neighbors among ``N*``
        candidates — used to degree-match the baseline to AVMEM."""
        check_positive(degree, "degree")
        check_positive(n_star, "n_star")
        return cls(min(1.0, degree / n_star))

    def threshold(self, av_x: float, av_y: float, pdf: AvailabilityPdf) -> float:
        return self.probability

    def threshold_many(self, av_x, av_ys, pdf):
        return np.full(len(av_ys), self.probability)

    def threshold_matrix(self, av_xs, av_ys, pdf):
        return np.array(self.probability)

    def __repr__(self) -> str:
        return f"RandomUniformRule(p={self.probability:.4g})"
