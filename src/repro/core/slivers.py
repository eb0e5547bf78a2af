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

Each rule writes its formula once, as the broadcasting kernel
:meth:`_Rule.thresholds`: the scalar form and every batched caller
evaluate it, so builder and verifier compare the same floats.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.availability import AvailabilityPdf
from repro.util.mathx import log_at_least_one
from repro.util.validation import check_positive, check_probability

__all__ = [
    "VerticalSliverRule",
    "HorizontalSliverRule",
    "has_candidate_bound",
    "ConstantVertical",
    "LogarithmicVertical",
    "LogarithmicDecreasingVertical",
    "ConstantHorizontal",
    "LogarithmicConstantHorizontal",
    "RandomUniformRule",
    "FunctionRule",
]

#: Densities at or below this mean "no nodes here": the 1/p(av(y)) factor
#: is capped (threshold 1.0), mirroring the paper's min(·, 1.0).
_DENSITY_FLOOR = 1e-12


def _capped(values, degenerate) -> np.ndarray:
    """``min(values, 1)`` with the ``degenerate`` entries set to 1, in
    place (a 0-d result is made a writable array first)."""
    values = np.asarray(values)
    values[degenerate] = 1.0
    return np.minimum(values, 1.0, out=values)


def _coverage(c1: float, densities, pdf: AvailabilityPdf):
    """I.B's uncapped ``c1·log(N*) / (N*·p(av(y)))`` at ``densities``."""
    with np.errstate(divide="ignore"):
        return c1 * log_at_least_one(pdf.n_star) / (pdf.n_star * densities)


def _share(count: float, pool: float, count_name: str, pool_name: str) -> float:
    """The probability giving an expected ``count`` hits out of ``pool``."""
    check_positive(count, count_name)
    check_positive(pool, pool_name)
    return min(1.0, count / pool)


class _Rule(abc.ABC):
    """Shared base: one broadcasting kernel, the scalar form derived."""

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
    def thresholds(self, av_x, av_y, pdf: AvailabilityPdf):
        """``f(av(x), av(y))`` in [0, 1], elementwise over the broadcast
        of ``av_x`` and ``av_y`` (floats or arrays of any shape).

        The result broadcasts to that shape: a rule that reads one
        operand may return that operand's shape, a constant rule a
        scalar.  Callers hand each rule only the pairs on its own side
        of the ε band, so a rule need not be defined on the other side.
        """

    def threshold(self, av_x: float, av_y: float, pdf: AvailabilityPdf) -> float:
        """The scalar ``f(av(x), av(y))``: the kernel at one pair."""
        return float(self.thresholds(av_x, av_y, pdf))

    def candidate_values(self, avs: np.ndarray, pdf: AvailabilityPdf) -> np.ndarray:
        """Per-node values backing the declared :attr:`CANDIDATE_BOUND`
        (per-destination thresholds for ``"dst"``, uncapped base values
        for ``"dst-distance"``, per-source scalars for ``"src"``)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not participate in candidate generation"
        )


def has_candidate_bound(rule: "_Rule") -> bool:
    """Whether the candidate-generation stage can bound ``rule`` over an
    availability bucket (see :attr:`_Rule.CANDIDATE_BOUND`)."""
    return rule.CANDIDATE_BOUND is not None


class VerticalSliverRule(_Rule):
    """Marker base class for vertical sub-predicates."""


class HorizontalSliverRule(_Rule):
    """Marker base class for horizontal sub-predicates."""


class _ConstantRule(_Rule):
    """``f(·,·) = p``: the kernel of I.A, II.A and the random rule."""

    CANDIDATE_BOUND = "const"
    _WHAT = "probability"

    def __init__(self, probability: float):
        self.probability = check_probability(probability, self._WHAT)

    def thresholds(self, av_x, av_y, pdf: AvailabilityPdf):
        return self.probability

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.probability:.4g})"


# ----------------------------------------------------------------------
# Vertical sub-predicates
# ----------------------------------------------------------------------
class ConstantVertical(_ConstantRule, VerticalSliverRule):
    """[I.A] availability-independent acceptance probability."""

    _WHAT = "vertical probability"

    @classmethod
    def from_target_count(cls, d1: float, n_star: float) -> "ConstantVertical":
        """Probability yielding an expected ``d1`` vertical neighbors out of
        ``N*`` candidates (the paper's ``d1 = O(log N*)`` reading)."""
        return cls(_share(d1, n_star, "d1", "n_star"))


class LogarithmicVertical(VerticalSliverRule):
    """[I.B] ``min(c1·log(N*) / (N*·p(av(y))), 1)`` — uniform coverage."""

    CANDIDATE_BOUND = "dst"

    def __init__(self, c1: float = 3.0):
        self.c1 = check_positive(c1, "c1")

    def thresholds(self, av_x, av_y, pdf: AvailabilityPdf):
        densities = pdf.density(np.asarray(av_y, dtype=float))
        return _capped(_coverage(self.c1, densities, pdf), densities <= _DENSITY_FLOOR)

    def candidate_values(self, avs, pdf):
        # Exact per-destination thresholds (bucket bounds and re-filter).
        return self.thresholds(0.0, avs, pdf)

    def __repr__(self) -> str:
        return f"LogarithmicVertical(c1={self.c1})"


class LogarithmicDecreasingVertical(VerticalSliverRule):
    """[I.C] I.B divided by ``|av(y) − av(x)|`` — exponentially-spaced
    long links, Pastry/Chord-style (Corollary 1.1)."""

    CANDIDATE_BOUND = "dst-distance"

    def __init__(self, c1: float = 3.0):
        self.c1 = check_positive(c1, "c1")

    def thresholds(self, av_x, av_y, pdf: AvailabilityPdf):
        av_y = np.asarray(av_y, dtype=float)
        densities = pdf.density(av_y)
        distances = np.abs(av_y - av_x)
        numerator = self.c1 * log_at_least_one(pdf.n_star)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = numerator / (pdf.n_star * densities * distances)
        return _capped(values, (densities <= _DENSITY_FLOOR) | (distances <= 0.0))

    def candidate_values(self, avs, pdf):
        # Uncapped base values; +inf at degenerate densities bounds to 1.0.
        densities = pdf.density(np.asarray(avs, dtype=float))
        values = _coverage(self.c1, densities, pdf)
        values[densities <= _DENSITY_FLOOR] = np.inf
        return values

    def __repr__(self) -> str:
        return f"LogarithmicDecreasingVertical(c1={self.c1})"


# ----------------------------------------------------------------------
# Horizontal sub-predicates
# ----------------------------------------------------------------------
class ConstantHorizontal(_ConstantRule, HorizontalSliverRule):
    """[II.A] fixed acceptance probability within the ±ε band."""

    _WHAT = "horizontal probability"

    @classmethod
    def from_target_count(cls, d2: float, n_star_av: float) -> "ConstantHorizontal":
        """Probability yielding an expected ``d2`` horizontal neighbors out
        of the ``N*_av(x)`` candidates in the band."""
        return cls(_share(d2, n_star_av, "d2", "n_star_av"))


class LogarithmicConstantHorizontal(HorizontalSliverRule):
    """[II.B] ``min(c2·log(N*_av(x)) / N*min_av(x), 1)``.

    The threshold depends only on ``av(x)`` (plus the global ε).  It is
    read from a 1e-3 availability grid — ``av(x)`` rounded half-to-even,
    far below bin resolution — whose 1001 values are filled lazily and
    belong to the PDF object they were filled for: a different PDF
    starts a fresh grid, so the value is a pure function of both.
    """

    CANDIDATE_BOUND = "src"

    def __init__(self, c2: float = 1.0, epsilon: float = 0.1):
        self.c2 = check_positive(c2, "c2")
        self.epsilon = check_positive(epsilon, "epsilon")
        self._grid_pdf = self._grid = None

    def _at(self, point: int, pdf: AvailabilityPdf) -> float:
        at = point / 1000.0
        n_min = pdf.n_star_min_av(at, self.epsilon)
        if n_min <= 0.0:
            return 1.0
        return min(self.c2 * log_at_least_one(pdf.n_star_av(at, self.epsilon)) / n_min, 1.0)

    def thresholds(self, av_x, av_y, pdf: AvailabilityPdf):
        if pdf is not self._grid_pdf:
            self._grid_pdf = pdf
            self._grid = np.full(1001, np.nan)
        grid = self._grid
        if not isinstance(av_x, np.ndarray):
            point = round(av_x * 1000.0)
            if not 0 <= point <= 1000:
                raise ValueError(f"availability {av_x!r} is outside [0, 1]")
            value = grid[point]
            if value != value:
                value = grid[point] = self._at(point, pdf)
            return value
        # np.rint rounds half-to-even like round() above.
        points = np.rint(av_x * 1000.0).astype(np.intp)
        if points.size and not (points.min() >= 0 and points.max() <= 1000):
            raise ValueError("availabilities outside [0, 1]")
        values = grid[points]
        missing = np.isnan(values)
        if missing.any():
            for point in np.unique(points[missing]).tolist():
                grid[point] = self._at(point, pdf)
            values = grid[points]
        return values

    def candidate_values(self, avs, pdf):  # per-*source* thresholds
        return self.thresholds(np.asarray(avs, dtype=float), 0.0, pdf)

    def __repr__(self) -> str:
        return f"LogarithmicConstantHorizontal(c2={self.c2}, epsilon={self.epsilon})"


# ----------------------------------------------------------------------
# Application-specified rules and the random baseline
# ----------------------------------------------------------------------
class FunctionRule(VerticalSliverRule, HorizontalSliverRule):
    """An application-specified sub-predicate (Section 1.3's headline:
    "AVMEM allows arbitrary classes of application-specified predicates").

    Wraps any pure callable ``f(av_x, av_y, pdf) -> value`` into a sliver
    rule; the returned value is clamped into [0, 1].  The callable must
    be deterministic — it becomes part of the *consistent* predicate, so
    every node (and every verifier) has to compute the same threshold
    from the same inputs.  The kernel calls it once per pair, on floats.

    >>> prefer_stable = FunctionRule(lambda ax, ay, pdf: ay**2, name="av^2")
    """

    def __init__(self, fn, name: str = "custom"):
        if not callable(fn):
            raise TypeError(f"fn must be callable, got {fn!r}")
        self._fn = fn
        self.name = str(name)

    def thresholds(self, av_x, av_y, pdf: AvailabilityPdf):
        xs, ys = np.broadcast_arrays(np.asarray(av_x, dtype=float), np.asarray(av_y, dtype=float))
        pairs = zip(xs.ravel().tolist(), ys.ravel().tolist())
        values = np.array([float(self._fn(x, y, pdf)) for x, y in pairs]).reshape(xs.shape)
        if np.isnan(values).any():  # NaN from the application callable
            raise ValueError(f"custom rule {self.name!r} returned NaN")
        return np.minimum(np.maximum(values, 0.0), 1.0)

    def __repr__(self) -> str:
        return f"FunctionRule({self.name!r})"


class RandomUniformRule(_ConstantRule, VerticalSliverRule, HorizontalSliverRule):
    """``f(·,·) = p`` — the consistent random overlay (SCAMP/CYCLON-like
    degree profile, but verifiable).  Usable as either sliver rule; using
    it for both gives the Fig 10 baseline graph."""

    _WHAT = "random probability"

    @classmethod
    def matching_expected_degree(cls, degree: float, n_star: float) -> "RandomUniformRule":
        """The ``p`` giving an expected ``degree`` neighbors among ``N*``
        candidates — used to degree-match the baseline to AVMEM."""
        return cls(_share(degree, n_star, "degree", "n_star"))
