"""Static overlay-graph construction and analysis.

Because the AVMEM predicate is consistent, the overlay it spans at any
instant is a pure function of the node set and their availabilities.
This module materializes that graph as :class:`OverlayGraph`: a
CSR-style structure (``src_indices`` / ``dst_indices`` / ``horizontal``
numpy arrays plus per-node ``offsets``) built by one fully-batched
predicate evaluation — O(N·k) candidate enumeration over a population
(:meth:`OverlayGraph.build_rows`) or the block-tiled N×N sweep over
descriptors (:meth:`OverlayGraph.build`) — free of per-edge Python (see
``benchmarks/bench_overlay_scale.py``).  All analytics
(:func:`sliver_sizes`, :func:`incoming_counts_by_kind`,
:func:`band_subgraph` / :func:`band_connectivity`,
:func:`mean_out_degree`) run as array operations on it.

Graph direction: membership is directed — ``x → y`` means "y is in x's
membership list" (``M(x, y) = 1``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ids import NodeId
from repro.core.population import Population
from repro.core.predicates import AvmemPredicate, NodeDescriptor, SliverKind
from repro.telemetry import current as current_telemetry
from repro.util.memmaps import spill

__all__ = [
    "OverlayGraph",
    "build_overlay",
    "sliver_sizes",
    "incoming_counts_by_kind",
    "band_subgraph",
    "band_connectivity",
    "mean_out_degree",
]


class OverlayGraph:
    """Array-backed directed membership graph (CSR layout).

    Attributes
    ----------
    ids:
        The node identities, in construction order; index ``i`` in every
        array refers to ``ids[i]``.
    availabilities:
        Float array, ``availabilities[i] = av(ids[i])``.
    src_indices, dst_indices:
        Parallel int64 edge arrays sorted by source then destination.
    horizontal:
        Boolean per-edge array — True for HORIZONTAL sliver edges.
    offsets:
        Int64 array of length ``n + 1``: edges of source ``i`` occupy
        ``slice(offsets[i], offsets[i + 1])``.
    """

    def __init__(
        self,
        ids: Optional[Sequence[NodeId]],
        availabilities: Optional[np.ndarray],
        src_indices: np.ndarray,
        dst_indices: np.ndarray,
        horizontal: np.ndarray,
        *,
        population: Optional[Population] = None,
        storage: Optional[str] = None,
    ):
        if population is None:
            if ids is None or availabilities is None:
                raise ValueError("pass either ids+availabilities or population=")
            population = Population.from_ids(
                tuple(ids), np.asarray(availabilities, dtype=float)
            )
        self.population = population
        self.availabilities = population.availabilities
        # Edge columns optionally spill to .npy memmaps: at 1M nodes the
        # CSR is ~10^8 edges (~1.7 GB), which need not stay resident.
        self.src_indices = spill(
            np.asarray(src_indices, dtype=np.int64), storage, "overlay_src"
        )
        self.dst_indices = spill(
            np.asarray(dst_indices, dtype=np.int64), storage, "overlay_dst"
        )
        self.horizontal = spill(
            np.asarray(horizontal, dtype=bool), storage, "overlay_horizontal"
        )
        n = population.size
        if not (self.src_indices.size == self.dst_indices.size == self.horizontal.size):
            raise ValueError("edge arrays must be parallel")
        if self.src_indices.size:
            if np.any(self.src_indices[:-1] > self.src_indices[1:]):
                raise ValueError("src_indices must be sorted (CSR row order)")
            for name, arr in (("src", self.src_indices), ("dst", self.dst_indices)):
                if int(arr.min()) < 0 or int(arr.max()) >= n:
                    raise ValueError(f"{name}_indices out of range [0, {n})")
        counts = np.bincount(self.src_indices, minlength=n)
        self.offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        descriptors: Sequence[NodeDescriptor],
        predicate: AvmemPredicate,
        cushion: float = 0.0,
        block_rows: int = 256,
        method: str = "exhaustive",
        storage: Optional[str] = None,
    ) -> "OverlayGraph":
        """Materialize the overlay over ``descriptors`` in one batched
        predicate evaluation."""
        ids: List[NodeId] = [d.node for d in descriptors]
        if len(set(ids)) != len(ids):
            raise ValueError("descriptors must have unique node ids")
        avs = np.array([d.availability for d in descriptors], dtype=float)
        with current_telemetry().span("overlay.build"):
            src, dst, horizontal = predicate.evaluate_all(
                ids, avs, cushion=cushion, block_rows=block_rows, method=method
            )
            return cls(ids, avs, src, dst, horizontal, storage=storage)

    @classmethod
    def build_rows(
        cls,
        population: Population,
        predicate: AvmemPredicate,
        cushion: float = 0.0,
        block_rows: int = 256,
        method: str = "candidates",
        storage: Optional[str] = None,
    ) -> "OverlayGraph":
        """Materialize the overlay directly over a
        :class:`~repro.core.population.Population` — no :class:`NodeId`
        objects are touched, which is what keeps 100k–1M-row builds
        memory-bounded.  ``method`` is forwarded to
        :meth:`~repro.core.predicates.AvmemPredicate.evaluate_all_rows`
        (candidate generation unless ``"exhaustive"`` is requested);
        ``storage`` spills the edge CSR to ``.npy`` memmaps in that
        directory."""
        with current_telemetry().span("overlay.build"):
            src, dst, horizontal = predicate.evaluate_all_rows(
                population.digests,
                population.availabilities,
                cushion=cushion,
                block_rows=block_rows,
                method=method,
            )
            return cls(
                None, None, src, dst, horizontal, population=population, storage=storage
            )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def ids(self) -> Tuple[NodeId, ...]:
        """The node identities, in row order (materializes lazily — for
        population-backed graphs prefer row indices)."""
        return self.population.id_tuple

    @property
    def number_of_nodes(self) -> int:
        return self.population.size

    @property
    def number_of_edges(self) -> int:
        return int(self.src_indices.size)

    def index_of(self, node: NodeId) -> int:
        return self.population.row_of(node)

    @property
    def id_array(self) -> np.ndarray:
        """The node identities as an object array — fancy-indexable by
        ``dst_indices`` slices, so membership-table installs can gather a
        CSR row's identities without per-edge Python."""
        return self.population.id_array

    @property
    def digest64_array(self) -> np.ndarray:
        """Per-node ``uint64`` endpoint digests, parallel to the row
        space (feeds :meth:`~repro.core.membership.MembershipTable.upsert_many`)."""
        return self.population.digests

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(dst_indices, horizontal)`` slices for source ``i`` — the
        node's membership list in array form."""
        sl = slice(int(self.offsets[i]), int(self.offsets[i + 1]))
        return self.dst_indices[sl], self.horizontal[sl]

    def successors(self, node: NodeId) -> List[NodeId]:
        dsts, _ = self.row(self.population.row_of(node))
        return [self.population.id_of(j) for j in dsts]

    # ------------------------------------------------------------------
    # Degree / sliver analytics (array operations)
    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def sliver_size_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node ``(hs_sizes, vs_sizes)`` out-degree arrays."""
        n = self.number_of_nodes
        hs = np.bincount(self.src_indices[self.horizontal], minlength=n)
        vs = np.bincount(self.src_indices[~self.horizontal], minlength=n)
        return hs, vs

    def incoming_count_array(self, kind: SliverKind) -> np.ndarray:
        mask = self.horizontal if kind is SliverKind.HORIZONTAL else ~self.horizontal
        return np.bincount(self.dst_indices[mask], minlength=self.number_of_nodes)

    def mean_out_degree(self) -> float:
        n = self.number_of_nodes
        if n == 0:
            return float("nan")
        return self.number_of_edges / n

    # ------------------------------------------------------------------
    # Bands (Theorem 2)
    # ------------------------------------------------------------------
    def band_mask(self, lo: float, hi: float) -> np.ndarray:
        return (self.availabilities >= lo) & (self.availabilities <= hi)

    def band_edge_mask(self, node_mask: np.ndarray) -> np.ndarray:
        """Edges with both endpoints inside ``node_mask``."""
        return node_mask[self.src_indices] & node_mask[self.dst_indices]

    def band_connectivity(self, lo: float, hi: float) -> bool:
        """Is the sub-overlay of nodes with availability in ``[lo, hi]``
        weakly connected?  Empty or singleton bands count as connected."""
        mask = self.band_mask(lo, hi)
        members = np.flatnonzero(mask)
        if members.size <= 1:
            return True
        edge_mask = self.band_edge_mask(mask)
        src = self.src_indices[edge_mask]
        dst = self.dst_indices[edge_mask]
        if src.size == 0:
            return False
        # Vectorized minimum-label propagation with pointer jumping: each
        # round every edge pulls both endpoints down to the smaller label
        # (weak connectivity treats edges as undirected) and every label
        # chases its own label, so convergence takes O(log diameter)
        # rounds of O(E) numpy work — no per-edge Python.
        labels = np.arange(self.number_of_nodes, dtype=np.int64)
        while True:
            before = labels[members]
            pulled = np.minimum(labels[src], labels[dst])
            np.minimum.at(labels, src, pulled)
            np.minimum.at(labels, dst, pulled)
            # A label is itself a node index in the same component, so
            # following it tightens toward the component minimum.
            labels = np.minimum(labels, labels[labels])
            after = labels[members]
            if np.array_equal(after, before):
                break
        return np.unique(labels[members]).size == 1

    def subgraph(self, node_mask: np.ndarray) -> "OverlayGraph":
        """Induced OverlayGraph over the nodes selected by ``node_mask``."""
        members = np.flatnonzero(node_mask)
        remap = np.full(self.number_of_nodes, -1, dtype=np.int64)
        remap[members] = np.arange(members.size)
        edge_mask = self.band_edge_mask(np.asarray(node_mask, dtype=bool))
        return OverlayGraph(
            [self.population.id_of(i) for i in members],
            self.availabilities[members],
            remap[self.src_indices[edge_mask]],
            remap[self.dst_indices[edge_mask]],
            self.horizontal[edge_mask],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OverlayGraph(nodes={self.number_of_nodes}, "
            f"edges={self.number_of_edges})"
        )


def build_overlay(
    descriptors: Sequence[NodeDescriptor],
    predicate: AvmemPredicate,
    cushion: float = 0.0,
    block_rows: int = 256,
) -> OverlayGraph:
    """The array-backed overlay over ``descriptors`` (preferred API)."""
    return OverlayGraph.build(
        descriptors, predicate, cushion=cushion, block_rows=block_rows
    )


def sliver_sizes(graph: OverlayGraph) -> Dict[NodeId, Tuple[int, int]]:
    """Per-node ``(hs_size, vs_size)`` out-degrees."""
    hs, vs = graph.sliver_size_arrays()
    return {node: (int(h), int(v)) for node, h, v in zip(graph.ids, hs, vs)}


def incoming_counts_by_kind(graph: OverlayGraph, kind: SliverKind) -> Dict[NodeId, int]:
    """Per-node count of incoming edges of one sliver kind (Fig 4)."""
    counts = graph.incoming_count_array(kind)
    return {node: int(c) for node, c in zip(graph.ids, counts)}


def band_subgraph(graph: OverlayGraph, lo: float, hi: float) -> OverlayGraph:
    """Induced subgraph of nodes with availability in ``[lo, hi]``."""
    return graph.subgraph(graph.band_mask(lo, hi))


def band_connectivity(graph: OverlayGraph, lo: float, hi: float) -> bool:
    """Is the sub-overlay of nodes with availability in ``[lo, hi]``
    weakly connected?  (Theorem 2's claim, for bands of width 2ε.)

    Empty or singleton bands count as connected.
    """
    return graph.band_connectivity(lo, hi)


def mean_out_degree(graph: OverlayGraph) -> float:
    """Average membership-list size across nodes."""
    return graph.mean_out_degree()
