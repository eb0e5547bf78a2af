"""Tests for application-specified predicate rules (FunctionRule)."""

import numpy as np
import pytest

from repro.core.availability import AvailabilityPdf
from repro.core.ids import make_node_ids
from repro.core.predicates import AvmemPredicate, NodeDescriptor
from repro.core.slivers import FunctionRule
from repro.overlays.graphs import build_overlay, sliver_sizes


@pytest.fixture
def pdf(rng):
    return AvailabilityPdf.from_samples(rng.uniform(0.05, 0.95, 300))


class TestFunctionRule:
    def test_wraps_callable(self, pdf):
        rule = FunctionRule(lambda ax, ay, p: 0.25, name="const")
        assert rule.threshold(0.1, 0.9, pdf) == 0.25
        assert "const" in repr(rule)

    def test_clamps_into_unit_interval(self, pdf):
        high = FunctionRule(lambda ax, ay, p: 7.0)
        low = FunctionRule(lambda ax, ay, p: -3.0)
        assert high.threshold(0.1, 0.9, pdf) == 1.0
        assert low.threshold(0.1, 0.9, pdf) == 0.0

    def test_nan_rejected(self, pdf):
        rule = FunctionRule(lambda ax, ay, p: float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            rule.threshold(0.1, 0.9, pdf)

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            FunctionRule(0.5)

    def test_usable_as_both_slivers(self, pdf):
        """A FunctionRule can serve as horizontal and vertical rule."""
        rule = FunctionRule(lambda ax, ay, p: ay * 0.2, name="prefer-stable")
        predicate = AvmemPredicate(rule, rule, pdf)
        assert predicate.threshold(0.5, 0.9) == pytest.approx(0.18)

    def test_custom_predicate_shapes_overlay(self, pdf, rng):
        """An application predicate that prefers stable neighbors yields
        in-degree increasing with availability."""
        prefer_stable = FunctionRule(lambda ax, ay, p: ay**2 * 0.4, name="av^2")
        predicate = AvmemPredicate(prefer_stable, prefer_stable, pdf)
        ids = make_node_ids(300)
        avs = rng.uniform(0.05, 0.95, 300)
        descriptors = [NodeDescriptor(n, float(a)) for n, a in zip(ids, avs)]
        graph = build_overlay(descriptors, predicate)
        in_deg = np.bincount(graph.dst_indices, minlength=len(descriptors))
        corr = np.corrcoef(avs, in_deg)[0, 1]
        assert corr > 0.5  # stable nodes are far better known

    def test_consistency_preserved(self, pdf):
        """Custom rules stay inside the consistent framework: the same
        (ids, availabilities) always produce the same membership."""
        rule = FunctionRule(lambda ax, ay, p: abs(ax - ay), name="distance")
        p1 = AvmemPredicate(rule, rule, pdf)
        p2 = AvmemPredicate(rule, rule, pdf)
        ids = make_node_ids(40)
        x = NodeDescriptor(ids[0], 0.3)
        for node in ids[1:]:
            y = NodeDescriptor(node, 0.8)
            assert p1.evaluate(x, y) == p2.evaluate(x, y)

    def test_vectorized_fallback_matches_scalar(self, pdf, rng):
        rule = FunctionRule(lambda ax, ay, p: ay * 0.3)
        av_ys = rng.uniform(0, 1, 25)
        vector = rule.threshold_many(0.5, av_ys, pdf)
        scalar = np.array([rule.threshold(0.5, float(a), pdf) for a in av_ys])
        assert np.allclose(vector, scalar)
