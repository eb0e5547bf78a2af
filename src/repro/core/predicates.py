"""The AVMEM membership-predicate framework (Section 2, equation 1).

``M(x, y) ≡ { H(id(x), id(y)) ≤ f(av(x), av(y)) }``

* **Consistent** — the value depends only on the two identifiers and
  their availabilities, so the recipient or any third party can verify a
  claimed relationship (the anti-selfishness property).
* **Random** — ``H`` is uniform on [0, 1), so membership is a Bernoulli
  trial with success probability ``f``, giving the randomization that
  connectivity arguments need.

``f`` dispatches on the availability distance: within ±ε it is the
horizontal sub-predicate (slivers of *similar* availability), otherwise
the vertical one (long links across the availability space) — Fig 1.

The optional **cushion** is the Section 4.1 accommodation for stale or
inconsistent availability estimates: verification accepts when
``H ≤ f + cushion``.  The cushion applies at *verification*, not at
neighbor selection, so it does not inflate membership lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.availability import AvailabilityPdf
from repro.core.candidates import evaluate_all_candidates, supports_candidates
from repro.core.hashing import Affine64PairHash, PairwiseHash
from repro.core.ids import NodeId, digest_array
from repro.core.slivers import (
    HorizontalSliverRule,
    LogarithmicConstantHorizontal,
    LogarithmicVertical,
    RandomUniformRule,
    VerticalSliverRule,
    has_matrix_threshold,
)
from repro.util.validation import check_positive, check_probability, check_unit_interval

__all__ = ["SliverKind", "NodeDescriptor", "AvmemPredicate", "random_overlay_predicate"]


class SliverKind(Enum):
    """Which membership list a neighbor belongs to."""

    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


@dataclass(frozen=True)
class NodeDescriptor:
    """The (identifier, availability) pair the predicate operates on."""

    node: NodeId
    availability: float

    def __post_init__(self):
        check_unit_interval(self.availability, "availability")

    def with_availability(self, availability: float) -> "NodeDescriptor":
        return NodeDescriptor(self.node, availability)


class AvmemPredicate:
    """A concrete AVMEM predicate: sliver rules + ε + hash + PDF.

    The canonical paper configuration is
    ``AvmemPredicate(LogarithmicConstantHorizontal(), LogarithmicVertical(), pdf)``.
    ``hash_fn`` defaults to the interval-searchable ``affine64``.
    """

    def __init__(
        self,
        horizontal: HorizontalSliverRule,
        vertical: VerticalSliverRule,
        pdf: AvailabilityPdf,
        epsilon: float = 0.1,
        hash_fn: Optional[PairwiseHash] = None,
    ):
        if not isinstance(horizontal, HorizontalSliverRule):
            raise TypeError(f"horizontal must be a HorizontalSliverRule, got {horizontal!r}")
        if not isinstance(vertical, VerticalSliverRule):
            raise TypeError(f"vertical must be a VerticalSliverRule, got {vertical!r}")
        self.horizontal = horizontal
        self.vertical = vertical
        self.pdf = pdf
        self.epsilon = check_positive(epsilon, "epsilon")
        self.hash_fn = hash_fn if hash_fn is not None else Affine64PairHash()

    # ------------------------------------------------------------------
    # Scalar evaluation
    # ------------------------------------------------------------------
    def classify(self, av_x: float, av_y: float) -> SliverKind:
        """Horizontal when ``|av(x) − av(y)| < ε``, else vertical."""
        if abs(av_x - av_y) < self.epsilon:
            return SliverKind.HORIZONTAL
        return SliverKind.VERTICAL

    def threshold(self, av_x: float, av_y: float) -> float:
        """``f(av(x), av(y))`` — dispatch to the matching sliver rule."""
        if self.classify(av_x, av_y) is SliverKind.HORIZONTAL:
            return self.horizontal.threshold(av_x, av_y, self.pdf)
        return self.vertical.threshold(av_x, av_y, self.pdf)

    def hash_value(self, x: NodeId, y: NodeId) -> float:
        """``H(id(x), id(y))``."""
        return self.hash_fn.value(x, y)

    def evaluate(
        self, x: NodeDescriptor, y: NodeDescriptor, cushion: float = 0.0
    ) -> bool:
        """``M(x, y)`` — should ``y`` be in ``x``'s membership list?

        ``cushion`` loosens verification against stale availability data
        (Section 4.1); pass 0 for selection.  A node is never its own
        neighbor.
        """
        check_probability(cushion, "cushion")
        if x.node == y.node:
            return False
        f = self.threshold(x.availability, y.availability)
        return self.hash_value(x.node, y.node) <= min(1.0, f + cushion)

    def evaluate_kind(
        self, x: NodeDescriptor, y: NodeDescriptor, cushion: float = 0.0
    ) -> Optional[SliverKind]:
        """``M(x, y)`` with the sliver classification, or None."""
        if not self.evaluate(x, y, cushion=cushion):
            return None
        return self.classify(x.availability, y.availability)

    # ------------------------------------------------------------------
    # Vectorized evaluation (direct overlay construction)
    # ------------------------------------------------------------------
    def evaluate_many(
        self,
        x: NodeDescriptor,
        candidates: Sequence[NodeId],
        availabilities: np.ndarray,
        cushion: float = 0.0,
        digests: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate ``M(x, y_i)`` for many candidates at once.

        Returns ``(member_mask, horizontal_mask)`` — boolean arrays over
        the candidates.  Uses the hash's vectorized form when it has one
        (affine64, mix64) and a scalar loop otherwise.  Any candidate
        equal to ``x`` itself is excluded.  ``digests`` optionally supplies the candidates'
        precomputed ``uint64`` endpoint digests (e.g. from a membership
        table's columnar storage), skipping the per-candidate digest
        gather and the per-candidate self-exclusion scan.
        """
        availabilities = np.asarray(availabilities, dtype=float)
        if len(candidates) != availabilities.size:
            raise ValueError(
                f"{len(candidates)} candidates but {availabilities.size} availabilities"
            )
        if digests is not None:
            digests = np.asarray(digests, dtype=np.uint64)
            if digests.size != availabilities.size:
                raise ValueError(
                    f"{digests.size} digests but {availabilities.size} availabilities"
                )
        horizontal_mask = np.abs(availabilities - x.availability) < self.epsilon
        thresholds = np.empty(availabilities.size, dtype=float)
        if horizontal_mask.any():
            thresholds[horizontal_mask] = self.horizontal.threshold_many(
                x.availability, availabilities[horizontal_mask], self.pdf
            )
        vertical_mask = ~horizontal_mask
        if vertical_mask.any():
            thresholds[vertical_mask] = self.vertical.threshold_many(
                x.availability, availabilities[vertical_mask], self.pdf
            )
        if cushion:
            thresholds = np.minimum(1.0, thresholds + cushion)
        if self.hash_fn.supports_vectorized:
            if digests is None:
                digests = digest_array(candidates)
            hashes = self.hash_fn.value_many(x.node, digests)
        else:
            hashes = np.array([self.hash_fn.value(x.node, y) for y in candidates])
        member = hashes <= thresholds
        if digests is not None:
            member[digests == np.uint64(x.node.digest64)] = False
        else:
            for i, y in enumerate(candidates):
                if y == x.node:
                    member[i] = False
        return member, horizontal_mask

    @property
    def supports_candidate_generation(self) -> bool:
        """Whether this predicate admits the exact O(N·k) candidate
        path: an interval-structured hash (e.g. ``affine64``) plus
        bucket-boundable sliver rules (every paper rule; not
        application :class:`~repro.core.slivers.FunctionRule`\\ s)."""
        return supports_candidates(self)

    def check_overlay_method(self, method: str) -> None:
        """Raise unless ``method`` names a construction engine this
        predicate can run — there is no fallback between the two."""
        if method not in ("exhaustive", "candidates"):
            raise ValueError(
                f"method must be 'exhaustive' or 'candidates', got {method!r}"
            )
        if method == "candidates" and not self.supports_candidate_generation:
            raise ValueError(
                f"predicate {self!r} does not support candidate generation: "
                "it needs an interval-structured hash (affine64) and sliver "
                "rules with bucket bounds; pass method='exhaustive' explicitly"
            )

    def evaluate_all(
        self,
        ids: Sequence[NodeId],
        availabilities: np.ndarray,
        cushion: float = 0.0,
        block_rows: int = 256,
        method: str = "exhaustive",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate ``M(x_i, y_j)`` for the entire population at once.

        ``method`` selects the engine: ``"exhaustive"`` computes the
        full N×N hash/threshold comparison in numpy blocks of
        ``block_rows`` source rows (tiling bounds peak memory at
        ``O(block_rows · N)``) and works for every hash;
        ``"candidates"`` enumerates only the O(k) plausible neighbors
        per source through the inverted index in
        :mod:`repro.core.candidates`, is exact-parity with the sweep,
        and raises for a predicate without
        :attr:`supports_candidate_generation`.  Because the predicate is
        consistent this is the whole overlay in one call — the engine
        behind the array-backed
        :class:`~repro.overlays.graphs.OverlayGraph`.

        Returns ``(src_indices, dst_indices, horizontal)``: parallel
        arrays with one entry per member edge, sorted by source then
        destination index; ``horizontal`` flags the sliver kind.  The
        diagonal (a node is never its own neighbor) is excluded; ``ids``
        must be unique.  Falls back to a scalar hash loop per row for
        non-vectorizable hashes.
        """
        if len(set(ids)) != len(ids):
            raise ValueError("ids must be unique")
        return self._evaluate_all(
            digest_array(ids), availabilities, cushion, block_rows, method, ids
        )

    def evaluate_all_rows(
        self,
        digests: np.ndarray,
        availabilities: np.ndarray,
        cushion: float = 0.0,
        block_rows: int = 256,
        method: str = "candidates",
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-space :meth:`evaluate_all`: operate directly on a
        population's ``uint64`` digest array without materializing any
        :class:`NodeId` objects — the entry point for
        :class:`~repro.core.population.Population`-backed overlay
        construction and for direct bootstrap, hence the
        ``"candidates"`` default.  The exhaustive engine requires a
        matrix-capable hash here (string hashes need the id objects);
        output is identical to :meth:`evaluate_all` on the ids with the
        same digests.
        """
        digests = np.asarray(digests, dtype=np.uint64)
        if np.unique(digests).size != digests.shape[0]:
            raise ValueError("digests must be unique")
        if method == "exhaustive" and not self.hash_fn.supports_matrix:
            raise ValueError(
                f"hash {self.hash_fn.name!r} cannot evaluate in row space "
                "(no matrix form); pass the ids to evaluate_all instead"
            )
        return self._evaluate_all(
            digests, availabilities, cushion, block_rows, method, None
        )

    def _evaluate_all(self, digests, availabilities, cushion, block_rows, method, ids):
        check_probability(cushion, "cushion")
        availabilities = np.asarray(availabilities, dtype=float)
        n = digests.shape[0]
        if availabilities.size != n:
            raise ValueError(f"{n} ids but {availabilities.size} availabilities")
        if block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {block_rows}")
        self.check_overlay_method(method)
        if method == "candidates":
            return evaluate_all_candidates(self, digests, availabilities, cushion)
        return self._exhaustive_blocks(digests, availabilities, cushion, block_rows, ids)

    def _exhaustive_blocks(
        self,
        digests: np.ndarray,
        availabilities: np.ndarray,
        cushion: float,
        block_rows: int,
        ids: Optional[Sequence[NodeId]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = digests.shape[0]
        use_matrix_hash = self.hash_fn.supports_matrix
        # Rules with closed-form matrix thresholds are total functions and
        # can be evaluated over the full grid; rules that only define the
        # scalar/row forms (application FunctionRules) may be partial —
        # e.g. a distance-decaying vertical rule is undefined in-band —
        # so they get the masked row evaluation evaluate_many performs.
        use_matrix_thresholds = has_matrix_threshold(
            self.horizontal
        ) and has_matrix_threshold(self.vertical)
        src_chunks = []
        dst_chunks = []
        horizontal_chunks = []
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            av_block = availabilities[start:stop]
            h_mask = np.abs(av_block[:, None] - availabilities[None, :]) < self.epsilon
            if use_matrix_thresholds:
                thresholds = np.where(
                    h_mask,
                    self.horizontal.threshold_matrix(av_block, availabilities, self.pdf),
                    self.vertical.threshold_matrix(av_block, availabilities, self.pdf),
                )
            else:
                thresholds = np.empty(h_mask.shape, dtype=float)
                for r in range(stop - start):
                    row_h = h_mask[r]
                    if row_h.any():
                        thresholds[r, row_h] = self.horizontal.threshold_many(
                            float(av_block[r]), availabilities[row_h], self.pdf
                        )
                    row_v = ~row_h
                    if row_v.any():
                        thresholds[r, row_v] = self.vertical.threshold_many(
                            float(av_block[r]), availabilities[row_v], self.pdf
                        )
            if cushion:
                thresholds = np.minimum(1.0, thresholds + cushion)
            if use_matrix_hash:
                hashes = self.hash_fn.value_matrix(digests[start:stop], digests)
            else:
                hashes = np.array(
                    [[self.hash_fn.value(ids[i], y) for y in ids]
                     for i in range(start, stop)]
                )
            member = hashes <= thresholds
            # Mask the diagonal: a node is never its own neighbor.
            rows = np.arange(start, stop)
            member[rows - start, rows] = False
            block_src, block_dst = np.nonzero(member)
            src_chunks.append((block_src + start).astype(np.int64))
            dst_chunks.append(block_dst.astype(np.int64))
            horizontal_chunks.append(h_mask[member])
        if not src_chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0, dtype=bool)
        return (
            np.concatenate(src_chunks),
            np.concatenate(dst_chunks),
            np.concatenate(horizontal_chunks),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AvmemPredicate(h={self.horizontal!r}, v={self.vertical!r}, "
            f"epsilon={self.epsilon}, hash={self.hash_fn.name})"
        )


def paper_predicate(
    pdf: AvailabilityPdf,
    epsilon: float = 0.1,
    c1: float = 3.0,
    c2: float = 1.0,
    hash_fn: Optional[PairwiseHash] = None,
) -> AvmemPredicate:
    """The paper's default predicate: I.B vertical + II.B horizontal."""
    return AvmemPredicate(
        horizontal=LogarithmicConstantHorizontal(c2=c2, epsilon=epsilon),
        vertical=LogarithmicVertical(c1=c1),
        pdf=pdf,
        epsilon=epsilon,
        hash_fn=hash_fn,
    )


def random_overlay_predicate(
    pdf: AvailabilityPdf,
    probability: Optional[float] = None,
    expected_degree: Optional[float] = None,
    epsilon: float = 0.1,
    hash_fn: Optional[PairwiseHash] = None,
) -> AvmemPredicate:
    """The consistent *random* overlay baseline of Fig 10 (``f = p``).

    Provide either ``probability`` directly or ``expected_degree`` to
    degree-match AVMEM.
    """
    if (probability is None) == (expected_degree is None):
        raise ValueError("pass exactly one of probability / expected_degree")
    if probability is None:
        rule = RandomUniformRule.matching_expected_degree(expected_degree, pdf.n_star)
    else:
        rule = RandomUniformRule(probability)
    return AvmemPredicate(
        horizontal=rule, vertical=rule, pdf=pdf, epsilon=epsilon, hash_fn=hash_fn
    )


__all__.append("paper_predicate")
