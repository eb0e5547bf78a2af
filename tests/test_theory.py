"""Section 2.2 theory validated against the implementation.

These tests close the loop between the analysis (Theorems 1-3) and the
code: overlay graphs sampled from the predicates must match the
closed-form expectations within sampling error.
"""

import numpy as np
import pytest

from repro.core.availability import AvailabilityPdf
from repro.core.ids import make_node_ids
from repro.core.predicates import NodeDescriptor, paper_predicate
from repro.core.theory import (
    expected_degree,
    expected_horizontal_size,
    expected_vertical_size,
    theorem1_band_counts,
    theorem3_bound,
)
from repro.overlays.graphs import band_connectivity, build_overlay, sliver_sizes
from repro.util.mathx import log_at_least_one


@pytest.fixture(scope="module")
def uniform_population():
    """600 nodes with uniform availabilities and the matching PDF.

    The PDF is fit unweighted with ``N* = 600`` so that the static graph
    over all 600 descriptors (everyone treated as online) is exactly the
    population the theory expressions integrate over — the comparison is
    then apples-to-apples.
    """
    rng = np.random.default_rng(777)
    ids = make_node_ids(600)
    avs = rng.uniform(0.02, 0.98, 600)
    pdf = AvailabilityPdf.from_samples(avs, online_weighted=False)
    descriptors = [NodeDescriptor(n, float(a)) for n, a in zip(ids, avs)]
    return descriptors, pdf


class TestTheorem1:
    """Logarithmic vertical sliver: uniform coverage of availability space."""

    def test_band_counts_equal(self, uniform_population):
        _, pdf = uniform_population
        predicate = paper_predicate(pdf)
        counts = theorem1_band_counts(predicate, av_x=0.5, band_width=0.1)
        populated = [v for v in counts.values() if v > 0.05]
        assert len(populated) >= 5
        # Uniform coverage: max/min within a modest factor (discretized
        # pdf + capping produce small deviations).
        assert max(populated) / min(populated) < 1.8

    def test_empirical_matches_expectation(self, uniform_population):
        descriptors, pdf = uniform_population
        predicate = paper_predicate(pdf)
        graph = build_overlay(descriptors, predicate)
        sizes = sliver_sizes(graph)
        mids = [d for d in descriptors if 0.45 <= d.availability <= 0.55]
        empirical = np.mean([sizes[d.node][1] for d in mids])
        theoretical = np.mean(
            [expected_vertical_size(predicate, d.availability) for d in mids]
        )
        assert empirical == pytest.approx(theoretical, rel=0.30)


class TestTheorem2:
    """Logarithmic-constant horizontal sliver: band connectivity w.h.p."""

    def test_bands_connected(self, uniform_population):
        descriptors, pdf = uniform_population
        predicate = paper_predicate(pdf, c2=1.5)
        graph = build_overlay(descriptors, predicate)
        connected = sum(
            band_connectivity(graph, center - 0.1, center + 0.1)
            for center in (0.2, 0.35, 0.5, 0.65, 0.8)
        )
        assert connected >= 4  # w.h.p., allow one unlucky band


class TestTheorem3:
    """Total degree bounded, O(log N*) when the band is dense."""

    def test_expected_degree_below_bound(self, uniform_population):
        _, pdf = uniform_population
        predicate = paper_predicate(pdf)
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert expected_degree(predicate, a) <= theorem3_bound(
                pdf, a, predicate.epsilon, predicate.vertical.c1
            ) + 1e-6

    def test_empirical_degree_below_bound(self, uniform_population):
        descriptors, pdf = uniform_population
        predicate = paper_predicate(pdf)
        graph = build_overlay(descriptors, predicate)
        sizes = sliver_sizes(graph)
        violations = 0
        for d in descriptors:
            hs, vs = sizes[d.node]
            bound = theorem3_bound(pdf, d.availability, 0.1, 3.0)
            if hs + vs > bound * 1.5:  # slack for sampling noise
                violations += 1
        assert violations / len(descriptors) < 0.05

    def test_degree_is_logarithmic_scale(self, uniform_population):
        """Mean degree ~ O(log N*): far below N*."""
        _, pdf = uniform_population
        predicate = paper_predicate(pdf)
        degree = expected_degree(predicate, 0.5)
        assert degree < 10 * log_at_least_one(pdf.n_star)
        assert degree < pdf.n_star / 4


class TestTheoryHelpers:
    def test_horizontal_plus_vertical_equals_degree(self, uniform_population):
        _, pdf = uniform_population
        predicate = paper_predicate(pdf)
        total = expected_degree(predicate, 0.4)
        parts = expected_horizontal_size(predicate, 0.4) + expected_vertical_size(
            predicate, 0.4
        )
        assert total == pytest.approx(parts)

    def test_horizontal_size_zero_outside_band(self, uniform_population):
        """HS expectation only integrates the ±ε band."""
        _, pdf = uniform_population
        predicate = paper_predicate(pdf)
        hs = expected_horizontal_size(predicate, 0.5)
        n_band = pdf.n_star_av(0.5, predicate.epsilon)
        assert 0.0 < hs <= n_band

    def test_theorem1_skips_horizontal_bands(self, uniform_population):
        _, pdf = uniform_population
        predicate = paper_predicate(pdf)
        counts = theorem1_band_counts(predicate, av_x=0.45, band_width=0.1)
        for (lo, hi) in counts:
            assert hi <= 0.45 - 0.1 + 1e-9 or lo >= 0.45 + 0.1 - 1e-9
