"""Unit + property tests for the AVMEM predicate framework."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.availability import AvailabilityPdf
from repro.core.hashing import DigestPairHash
from repro.core.ids import NodeId, make_node_ids
from repro.core.predicates import (
    AvmemPredicate,
    NodeDescriptor,
    SliverKind,
    paper_predicate,
    random_overlay_predicate,
)
from repro.core.slivers import (
    ConstantHorizontal,
    ConstantVertical,
    LogarithmicConstantHorizontal,
    LogarithmicDecreasingVertical,
    LogarithmicVertical,
    RandomUniformRule,
)


@pytest.fixture
def pdf(rng):
    return AvailabilityPdf.from_samples(rng.uniform(0.05, 0.95, 400))


@pytest.fixture
def predicate(pdf):
    return paper_predicate(pdf)


class TestNodeDescriptor:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeDescriptor(NodeId("a", 1), 1.5)

    def test_with_availability(self):
        d = NodeDescriptor(NodeId("a", 1), 0.5)
        d2 = d.with_availability(0.7)
        assert d2.availability == 0.7
        assert d2.node == d.node
        assert d.availability == 0.5  # original untouched


class TestClassification:
    def test_horizontal_within_epsilon(self, predicate):
        assert predicate.classify(0.5, 0.55) is SliverKind.HORIZONTAL
        assert predicate.classify(0.5, 0.5) is SliverKind.HORIZONTAL

    def test_vertical_outside_epsilon(self, predicate):
        assert predicate.classify(0.5, 0.65) is SliverKind.VERTICAL
        assert predicate.classify(0.5, 0.1) is SliverKind.VERTICAL

    def test_boundary_is_vertical(self, predicate):
        # |av_x - av_y| == epsilon is NOT "within" the band (strict <).
        # Exactly-representable values avoid float-rounding ambiguity.
        assert predicate.classify(0.5, 0.625) is SliverKind.VERTICAL
        assert predicate.classify(0.25, 0.375) is SliverKind.VERTICAL


class TestEvaluation:
    def test_never_own_neighbor(self, predicate):
        d = NodeDescriptor(NodeId("a", 1), 0.5)
        assert not predicate.evaluate(d, d)
        assert predicate.evaluate_kind(d, d) is None

    def test_matches_manual_computation(self, predicate):
        x = NodeDescriptor(NodeId("a", 1), 0.42)
        y = NodeDescriptor(NodeId("b", 2), 0.87)
        expected = predicate.hash_value(x.node, y.node) <= predicate.threshold(
            0.42, 0.87
        )
        assert predicate.evaluate(x, y) == expected

    def test_consistency_across_instances(self, pdf):
        """Any party evaluating M(x, y) gets the same answer."""
        p1 = paper_predicate(pdf)
        p2 = paper_predicate(pdf)
        ids = make_node_ids(30)
        for i in range(0, 28, 2):
            x = NodeDescriptor(ids[i], 0.3)
            y = NodeDescriptor(ids[i + 1], 0.8)
            assert p1.evaluate(x, y) == p2.evaluate(x, y)

    def test_cushion_widens_acceptance(self, predicate):
        ids = make_node_ids(200)
        base = cushioned = 0
        x = NodeDescriptor(ids[0], 0.5)
        for node in ids[1:]:
            y = NodeDescriptor(node, 0.9)
            base += predicate.evaluate(x, y)
            cushioned += predicate.evaluate(x, y, cushion=0.3)
        assert cushioned > base

    def test_cushion_validation(self, predicate):
        x = NodeDescriptor(NodeId("a", 1), 0.5)
        y = NodeDescriptor(NodeId("b", 2), 0.9)
        with pytest.raises(ValueError):
            predicate.evaluate(x, y, cushion=2.0)

    def test_evaluate_kind_matches_classify(self, predicate):
        ids = make_node_ids(100)
        x = NodeDescriptor(ids[0], 0.5)
        for node in ids[1:]:
            y = NodeDescriptor(node, 0.53)
            kind = predicate.evaluate_kind(x, y)
            if kind is not None:
                assert kind is SliverKind.HORIZONTAL

    def test_rule_type_validation(self, pdf):
        with pytest.raises(TypeError):
            AvmemPredicate(LogarithmicVertical(), LogarithmicVertical(), pdf)
        with pytest.raises(TypeError):
            AvmemPredicate(
                LogarithmicConstantHorizontal(), LogarithmicConstantHorizontal(), pdf
            )

    def test_random_rule_usable_as_both(self, pdf):
        rule = RandomUniformRule(0.1)
        predicate = AvmemPredicate(rule, rule, pdf)
        assert predicate.threshold(0.2, 0.9) == 0.1
        assert predicate.threshold(0.2, 0.22) == 0.1


class TestVectorizedEvaluation:
    def test_matches_scalar(self, predicate, rng):
        ids = make_node_ids(150)
        avs = rng.uniform(0.05, 0.95, 150)
        x = NodeDescriptor(ids[0], 0.5)
        member, horizontal = predicate.evaluate_many(x, ids, avs)
        for i, node in enumerate(ids):
            y = NodeDescriptor(node, float(avs[i]))
            assert member[i] == predicate.evaluate(x, y)
            if member[i]:
                expected_kind = predicate.classify(0.5, float(avs[i]))
                assert horizontal[i] == (expected_kind is SliverKind.HORIZONTAL)

    def test_self_excluded(self, predicate, rng):
        ids = make_node_ids(10)
        avs = np.full(10, 0.5)
        member, _ = predicate.evaluate_many(NodeDescriptor(ids[3], 0.5), ids, avs)
        assert not member[3]

    def test_cushion_vectorized(self, predicate, rng):
        ids = make_node_ids(200)
        avs = rng.uniform(0.05, 0.95, 200)
        x = NodeDescriptor(ids[0], 0.5)
        base, _ = predicate.evaluate_many(x, ids, avs)
        wide, _ = predicate.evaluate_many(x, ids, avs, cushion=0.3)
        assert wide.sum() >= base.sum()
        assert (wide | ~base).all()  # base members stay members

    def test_shape_mismatch_rejected(self, predicate):
        ids = make_node_ids(5)
        with pytest.raises(ValueError):
            predicate.evaluate_many(
                NodeDescriptor(ids[0], 0.5), ids, np.array([0.5, 0.5])
            )

    def test_scalar_hash_fallback(self, pdf, rng):
        predicate = paper_predicate(pdf, hash_fn=DigestPairHash("sha1"))
        ids = make_node_ids(40)
        avs = rng.uniform(0.1, 0.9, 40)
        x = NodeDescriptor(ids[0], 0.5)
        member, _ = predicate.evaluate_many(x, ids, avs)
        for i, node in enumerate(ids):
            assert member[i] == predicate.evaluate(
                x, NodeDescriptor(node, float(avs[i]))
            )


class TestFactories:
    def test_paper_predicate_rules(self, pdf):
        predicate = paper_predicate(pdf, c1=2.5, c2=1.5, epsilon=0.08)
        assert isinstance(predicate.vertical, LogarithmicVertical)
        assert isinstance(predicate.horizontal, LogarithmicConstantHorizontal)
        assert predicate.vertical.c1 == 2.5
        assert predicate.horizontal.c2 == 1.5
        assert predicate.epsilon == 0.08

    def test_random_overlay_by_probability(self, pdf):
        predicate = random_overlay_predicate(pdf, probability=0.07)
        assert predicate.threshold(0.1, 0.9) == pytest.approx(0.07)

    def test_random_overlay_by_degree(self, pdf):
        predicate = random_overlay_predicate(pdf, expected_degree=15.0)
        assert predicate.threshold(0.1, 0.9) == pytest.approx(
            min(1.0, 15.0 / pdf.n_star)
        )

    def test_random_overlay_requires_exactly_one_arg(self, pdf):
        with pytest.raises(ValueError):
            random_overlay_predicate(pdf)
        with pytest.raises(ValueError):
            random_overlay_predicate(pdf, probability=0.1, expected_degree=5.0)


@given(
    av_x=st.floats(0.0, 1.0),
    av_y=st.floats(0.0, 1.0),
    idx_x=st.integers(0, 500),
    idx_y=st.integers(0, 500),
)
@settings(max_examples=100, deadline=None)
def test_predicate_is_pure_function(av_x, av_y, idx_x, idx_y):
    """M(x, y) depends only on (id, av) pairs — evaluated twice, same answer;
    and the threshold is always a probability."""
    pdf = AvailabilityPdf.uniform(n_star=200.0)
    predicate = paper_predicate(pdf)
    x = NodeDescriptor(NodeId.from_index(idx_x), av_x)
    y = NodeDescriptor(NodeId.from_index(idx_y), av_y)
    assert predicate.evaluate(x, y) == predicate.evaluate(x, y)
    threshold = predicate.threshold(av_x, av_y)
    assert 0.0 <= threshold <= 1.0


class TestSliverRuleUnits:
    def test_constant_vertical_from_target(self):
        rule = ConstantVertical.from_target_count(18.0, 450.0)
        assert rule.probability == pytest.approx(0.04)

    def test_constant_vertical_caps_at_one(self):
        assert ConstantVertical.from_target_count(100.0, 50.0).probability == 1.0

    def test_constant_horizontal_from_target(self):
        rule = ConstantHorizontal.from_target_count(6.0, 60.0)
        assert rule.probability == pytest.approx(0.1)

    def test_log_vertical_threshold_in_unit_interval(self, pdf, rng):
        rule = LogarithmicVertical(c1=3.0)
        for a in rng.uniform(0, 1, 50):
            assert 0.0 <= rule.threshold(0.5, float(a), pdf) <= 1.0

    def test_log_vertical_zero_density_caps(self):
        # All mass in [0, 0.1): density elsewhere is zero -> threshold 1.
        pdf = AvailabilityPdf.from_samples([0.05] * 50, online_weighted=False)
        rule = LogarithmicVertical()
        assert rule.threshold(0.5, 0.95, pdf) == 1.0

    def test_log_decreasing_decays_with_distance(self, pdf):
        rule = LogarithmicDecreasingVertical(c1=3.0)
        near = rule.threshold(0.5, 0.62, pdf)
        far = rule.threshold(0.5, 0.95, pdf)
        # Same-density comparison only approximately; use uniform pdf.
        uniform = AvailabilityPdf.uniform(n_star=400.0)
        assert rule.threshold(0.5, 0.62, uniform) > rule.threshold(0.5, 0.95, uniform)

    def test_log_decreasing_zero_distance_caps(self, pdf):
        rule = LogarithmicDecreasingVertical()
        assert rule.threshold(0.5, 0.5, pdf) == 1.0

    def test_horizontal_rule_independent_of_av_y(self, pdf):
        rule = LogarithmicConstantHorizontal(c2=1.0, epsilon=0.1)
        assert rule.threshold(0.5, 0.42, pdf) == rule.threshold(0.5, 0.58, pdf)

    def test_horizontal_rule_is_a_pure_grid_function(self, pdf, rng):
        """II.B is evaluated on a 1e-3 availability grid: the batched
        form is float-identical to scalar calls (including half-way
        points, where round() and np.rint must agree), and the value
        does not depend on what the rule evaluated before."""
        avs = np.concatenate(
            [rng.uniform(0.0, 1.0, 500), [0.0, 1.0, 0.0025, 0.0625, 0.4995, 0.5005]]
        )
        rule = LogarithmicConstantHorizontal(c2=1.0, epsilon=0.1)
        batched = rule.candidate_values(avs, pdf)
        assert batched.tolist() == [rule.threshold(float(a), 0.0, pdf) for a in avs]
        assert rule.threshold_matrix(avs, avs[:3], pdf)[:, 0].tolist() == batched.tolist()
        fresh = LogarithmicConstantHorizontal(c2=1.0, epsilon=0.1)
        backwards = [fresh.threshold(float(a), 0.0, pdf) for a in avs[::-1]][::-1]
        assert backwards == batched.tolist()
        assert rule.threshold(0.50049, 0.0, pdf) == rule.threshold(0.5, 0.0, pdf)

    def test_vectorized_rules_match_scalar(self, pdf, rng):
        av_ys = rng.uniform(0.0, 1.0, 60)
        for rule in (
            LogarithmicVertical(),
            LogarithmicDecreasingVertical(),
            LogarithmicConstantHorizontal(),
            ConstantVertical(0.05),
            ConstantHorizontal(0.2),
            RandomUniformRule(0.3),
        ):
            vector = rule.threshold_many(0.5, av_ys, pdf)
            scalar = np.array([rule.threshold(0.5, float(a), pdf) for a in av_ys])
            assert np.allclose(vector, scalar), type(rule).__name__

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ConstantVertical(1.5)
        with pytest.raises(ValueError):
            RandomUniformRule(-0.1)
