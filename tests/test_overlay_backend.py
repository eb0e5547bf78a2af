"""Parity tests: the array-backed :class:`OverlayGraph` must span exactly
the overlay per-pair scalar predicate evaluation spans, and its analytics
must agree with networkx's (a test-only oracle; those classes skip where
networkx is not installed).

The reference implementation below is the seed semantics verbatim — one
scalar ``evaluate_kind`` call per ordered pair — so any divergence in the
batched ``evaluate_all`` path (thresholds, hash matrix, cushion, band
dispatch, diagonal masking) shows up as an edge-set or kind mismatch.
Covered across pdf / ε / cushion / hash combinations, including the
non-vectorizable digest-hash fallback path.
"""

import numpy as np
import pytest

from repro.core.availability import AvailabilityPdf
from repro.core.hashing import DigestPairHash, Mix64PairHash
from repro.core.ids import make_node_ids
from repro.core.predicates import (
    NodeDescriptor,
    SliverKind,
    paper_predicate,
    random_overlay_predicate,
)
from repro.overlays.graphs import (
    OverlayGraph,
    band_connectivity,
    band_subgraph,
    build_overlay,
    incoming_counts_by_kind,
    mean_out_degree,
    sliver_sizes,
)


def reference_edges(descriptors, predicate, cushion=0.0):
    """Seed semantics: scalar predicate evaluation per ordered pair."""
    edges = {}
    for x in descriptors:
        for y in descriptors:
            if predicate.evaluate(x, y, cushion=cushion):
                edges[(x.node, y.node)] = predicate.classify(
                    x.availability, y.availability
                )
    return edges


def overlay_edges(overlay):
    return {
        (overlay.ids[s], overlay.ids[d]):
            SliverKind.HORIZONTAL if h else SliverKind.VERTICAL
        for s, d, h in zip(
            overlay.src_indices, overlay.dst_indices, overlay.horizontal
        )
    }


def make_population(n, seed, skew="uniform"):
    rng = np.random.default_rng(seed)
    ids = make_node_ids(n)
    if skew == "uniform":
        avs = rng.uniform(0.02, 0.98, n)
    else:  # heavy-tailed toward high availability, like the Overnet trace
        avs = np.clip(rng.beta(4.0, 1.5, n), 0.01, 0.99)
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    descriptors = [NodeDescriptor(node, float(a)) for node, a in zip(ids, avs)]
    return descriptors, pdf


class TestEdgeSetParity:
    @pytest.mark.parametrize("skew", ["uniform", "skewed"])
    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("cushion", [0.0, 0.15])
    def test_paper_predicate_parity(self, skew, epsilon, cushion):
        descriptors, pdf = make_population(160, seed=7, skew=skew)
        predicate = paper_predicate(pdf, epsilon=epsilon)
        overlay = build_overlay(descriptors, predicate, cushion=cushion)
        assert overlay_edges(overlay) == reference_edges(
            descriptors, predicate, cushion=cushion
        )

    def test_random_overlay_parity(self):
        descriptors, pdf = make_population(150, seed=11)
        predicate = random_overlay_predicate(pdf, probability=0.08)
        overlay = build_overlay(descriptors, predicate)
        assert overlay_edges(overlay) == reference_edges(descriptors, predicate)

    @pytest.mark.parametrize("algorithm", ["sha1", "md5"])
    def test_non_vectorizable_hash_fallback(self, algorithm):
        """Digest hashes cannot batch; evaluate_all must loop and still
        agree with the scalar reference."""
        descriptors, pdf = make_population(60, seed=3)
        predicate = paper_predicate(pdf, hash_fn=DigestPairHash(algorithm))
        assert not predicate.hash_fn.supports_matrix
        overlay = build_overlay(descriptors, predicate)
        assert overlay_edges(overlay) == reference_edges(descriptors, predicate)

    def test_block_tiling_invariant(self):
        """Tiling must not change the result: tiny blocks == one block."""
        descriptors, pdf = make_population(97, seed=5)
        predicate = paper_predicate(pdf)
        small = build_overlay(descriptors, predicate, block_rows=7)
        big = build_overlay(descriptors, predicate, block_rows=10_000)
        assert overlay_edges(small) == overlay_edges(big)

    def test_salted_hash_family(self):
        descriptors, pdf = make_population(80, seed=13)
        predicate = paper_predicate(pdf, hash_fn=Mix64PairHash(salt=42))
        overlay = build_overlay(descriptors, predicate)
        assert overlay_edges(overlay) == reference_edges(descriptors, predicate)

    def test_partial_custom_rule_parity(self):
        """Application rules without a closed-form matrix override may be
        partial functions (a distance-decaying vertical rule divides by
        |av(x) − av(y)|, which is only ever evaluated out-of-band by the
        scalar path); the batched path must use the same masked
        evaluation instead of the full N×N grid."""
        from repro.core.predicates import AvmemPredicate
        from repro.core.slivers import FunctionRule, LogarithmicConstantHorizontal

        descriptors, pdf = make_population(100, seed=43)
        predicate = AvmemPredicate(
            horizontal=LogarithmicConstantHorizontal(),
            vertical=FunctionRule(
                lambda ax, ay, pdf_: 0.3 / abs(ax - ay), name="distance-decay"
            ),
            pdf=pdf,
        )
        overlay = build_overlay(descriptors, predicate)
        assert overlay_edges(overlay) == reference_edges(descriptors, predicate)

    def test_long_chain_band_connectivity(self):
        """Stress the vectorized connectivity on a worst-case diameter:
        a directed chain is weakly connected; cutting one link splits it."""
        descriptors, _ = make_population(64, seed=47)
        ids = [d.node for d in descriptors]
        avs = np.full(64, 0.5)
        chain_src = np.arange(63, dtype=np.int64)
        chain_dst = np.arange(1, 64, dtype=np.int64)
        chain = OverlayGraph(
            ids, avs, chain_src, chain_dst, np.ones(63, dtype=bool)
        )
        assert chain.band_connectivity(0.0, 1.0)
        cut = np.ones(63, dtype=bool)
        cut[31] = False
        broken = OverlayGraph(
            ids, avs, chain_src[cut], chain_dst[cut], np.ones(62, dtype=bool)
        )
        assert not broken.band_connectivity(0.0, 1.0)


def nx_view(overlay):
    pytest.importorskip("networkx")
    from reference.nx_overlay import to_networkx

    return to_networkx(overlay)


class TestNetworkxAdapter:
    def test_to_networkx_matches_scalar_reference(self):
        descriptors, pdf = make_population(120, seed=17)
        predicate = paper_predicate(pdf)
        adapted = nx_view(build_overlay(descriptors, predicate))
        want = reference_edges(descriptors, predicate)
        assert set(adapted.edges) == set(want)
        for src, dst in adapted.edges:
            assert adapted.edges[src, dst]["kind"] is want[src, dst]
        for descriptor in descriptors:
            assert (
                adapted.nodes[descriptor.node]["availability"]
                == descriptor.availability
            )

    def test_isolated_nodes_survive_adaptation(self):
        """Nodes with no edges must still appear in the adapter output."""
        descriptors, pdf = make_population(40, seed=19)
        predicate = random_overlay_predicate(pdf, probability=0.01)
        overlay = build_overlay(descriptors, predicate)
        assert nx_view(overlay).number_of_nodes() == 40


class TestAnalyticsParity:
    """CSR analytics vs networkx's own degree / subgraph / connectivity
    answers over the adapted graph."""

    @pytest.fixture(scope="class")
    def both_backends(self):
        descriptors, pdf = make_population(200, seed=23)
        predicate = paper_predicate(pdf)
        overlay = build_overlay(descriptors, predicate)
        return overlay, nx_view(overlay)

    @staticmethod
    def nx_band(graph, lo, hi):
        members = [
            node for node, data in graph.nodes(data=True)
            if lo <= data["availability"] <= hi
        ]
        return graph.subgraph(members)

    def test_sliver_sizes(self, both_backends):
        overlay, graph = both_backends
        want = {}
        for node in graph.nodes:
            kinds = [data["kind"] for _, _, data in graph.out_edges(node, data=True)]
            hs = sum(kind is SliverKind.HORIZONTAL for kind in kinds)
            want[node] = (hs, len(kinds) - hs)
        assert sliver_sizes(overlay) == want

    def test_incoming_counts(self, both_backends):
        overlay, graph = both_backends
        for kind in (SliverKind.HORIZONTAL, SliverKind.VERTICAL):
            want = {node: 0 for node in graph.nodes}
            for _, dst, data in graph.edges(data=True):
                want[dst] += data["kind"] is kind
            assert incoming_counts_by_kind(overlay, kind) == want

    def test_mean_out_degree(self, both_backends):
        overlay, graph = both_backends
        assert mean_out_degree(overlay) == pytest.approx(
            graph.number_of_edges() / graph.number_of_nodes()
        )

    @pytest.mark.parametrize(
        "band", [(0.0, 1.0), (0.4, 0.6), (0.05, 0.15), (0.85, 0.95), (2.0, 3.0)]
    )
    def test_band_connectivity(self, both_backends, band):
        import networkx as nx

        overlay, graph = both_backends
        sub = self.nx_band(graph, *band)
        want = sub.number_of_nodes() <= 1 or nx.is_weakly_connected(sub)
        assert band_connectivity(overlay, *band) == want

    @pytest.mark.parametrize("band", [(0.3, 0.7), (0.9, 1.0)])
    def test_band_subgraph(self, both_backends, band):
        overlay, graph = both_backends
        array_sub = band_subgraph(overlay, *band)
        nx_sub = self.nx_band(graph, *band)
        assert isinstance(array_sub, OverlayGraph)
        assert set(array_sub.ids) == set(nx_sub.nodes)
        assert overlay_edges(array_sub) == {
            (s, d): nx_sub.edges[s, d]["kind"] for s, d in nx_sub.edges
        }

    def test_out_degrees_match_offsets(self, both_backends):
        overlay, graph = both_backends
        degrees = overlay.out_degrees()
        for i, node in enumerate(overlay.ids):
            assert degrees[i] == graph.out_degree(node)
            dsts, _ = overlay.row(i)
            assert {overlay.ids[j] for j in dsts} == set(graph.successors(node))


class TestValidation:
    def test_duplicate_ids_rejected(self):
        descriptors, pdf = make_population(10, seed=29)
        predicate = paper_predicate(pdf)
        with pytest.raises(ValueError):
            build_overlay([descriptors[0], descriptors[0]], predicate)

    def test_length_mismatch_rejected(self):
        descriptors, pdf = make_population(10, seed=31)
        predicate = paper_predicate(pdf)
        with pytest.raises(ValueError):
            predicate.evaluate_all(
                [d.node for d in descriptors], np.array([0.5, 0.5])
            )

    def test_bad_block_rows_rejected(self):
        descriptors, pdf = make_population(10, seed=37)
        predicate = paper_predicate(pdf)
        ids = [d.node for d in descriptors]
        avs = np.array([d.availability for d in descriptors])
        with pytest.raises(ValueError):
            predicate.evaluate_all(ids, avs, block_rows=0)

    def test_no_self_loops(self):
        descriptors, pdf = make_population(50, seed=41)
        overlay = build_overlay(descriptors, paper_predicate(pdf), cushion=1.0)
        assert np.all(overlay.src_indices != overlay.dst_indices)

    def test_empty_population_mean_degree(self):
        empty = OverlayGraph(
            [], np.empty(0), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool),
        )
        assert np.isnan(mean_out_degree(empty))
