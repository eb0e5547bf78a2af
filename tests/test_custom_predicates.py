"""Tests for application-specified predicate rules (FunctionRule)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.availability import AvailabilityPdf
from repro.core.ids import make_node_ids
from repro.core.predicates import AvmemPredicate, NodeDescriptor
from repro.core.slivers import FunctionRule
from repro.overlays.graphs import build_overlay, sliver_sizes


_PDF = AvailabilityPdf.uniform(n_star=300.0)


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

    @settings(max_examples=40, deadline=None)
    @given(
        xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
        ys=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_vectorized_fallback_matches_scalar(self, xs, ys):
        """The kernel calls the application callable once per pair and
        clamps it: one pair, a source against rows, a block and paired
        arrays all give the clamped callable's floats exactly."""
        fn = lambda ax, ay, p: (ay - ax) * 3.0  # noqa: E731 - spans [-3, 3]
        rule = FunctionRule(fn)
        expected = np.array(
            [[min(1.0, max(0.0, fn(x, y, _PDF))) for y in ys] for x in xs]
        )
        av_x = np.array(xs)
        av_y = np.array(ys)
        scalar = np.array([[rule.threshold(x, y, _PDF) for y in ys] for x in xs])
        rows = np.array([rule.thresholds(x, av_y, _PDF) for x in xs])
        block = rule.thresholds(av_x[:, None], av_y[None, :], _PDF)
        paired = rule.thresholds(
            np.repeat(av_x, av_y.size), np.tile(av_y, av_x.size), _PDF
        ).reshape(expected.shape)
        for form in (scalar, rows, block, paired):
            assert form.shape == expected.shape
            assert form.tobytes() == expected.tobytes()
