"""Unit + property tests for the AVMEM predicate framework."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.availability import AvailabilityPdf
from repro.core.hashing import DigestPairHash, make_hash
from repro.core.ids import NodeId, make_node_ids
from repro.core.population import Population
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
from repro.util.mathx import log_at_least_one


#: PDFs for the kernel parity test: fitted, uniform, and one with an
#: empty bin (its density is 0, so I.B and I.C cap at 1 there).
_KERNEL_PDFS = (
    AvailabilityPdf.from_samples(np.random.default_rng(11).beta(0.7, 0.9, 2000)),
    AvailabilityPdf.uniform(n_star=500.0),
    AvailabilityPdf(np.r_[np.ones(5), 0.0, np.ones(14)], n_star=800.0),
)
#: Bin edges of the 20-bin PDFs and their float neighbors, II.B grid
#: half-way points, and arbitrary availabilities.
_EDGES = [k / 20.0 for k in range(21)]
_KERNEL_AVAILABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(
        _EDGES
        + [float(np.nextafter(e, 2.0)) for e in _EDGES[:-1]]
        + [float(np.nextafter(e, -1.0)) for e in _EDGES[1:]]
        + [0.0005, 0.0025, 0.0625, 0.4995, 0.5005, 0.9995]
    ),
)


def _kernel_rules():
    return (
        ConstantVertical(0.05),
        LogarithmicVertical(),
        LogarithmicDecreasingVertical(c1=2.0),
        ConstantHorizontal(0.2),
        LogarithmicConstantHorizontal(),
        LogarithmicConstantHorizontal(c2=1.5, epsilon=0.15),
        RandomUniformRule(0.3),
    )


def _reference(rule, av_x, av_y, pdf):
    """The shipped rules' formulas in plain floats: the oracle the
    broadcasting kernels are held to."""
    if isinstance(rule, (ConstantVertical, ConstantHorizontal, RandomUniformRule)):
        return rule.probability
    if isinstance(rule, LogarithmicConstantHorizontal):
        at = round(av_x * 1000.0) / 1000.0
        n_min = pdf.n_star_min_av(at, rule.epsilon)
        if n_min <= 0.0:
            return 1.0
        return min(rule.c2 * log_at_least_one(pdf.n_star_av(at, rule.epsilon)) / n_min, 1.0)
    density = pdf.density(av_y)
    distance = abs(av_y - av_x) if isinstance(rule, LogarithmicDecreasingVertical) else 1.0
    if density <= 1e-12 or distance <= 0.0:
        return 1.0
    numerator = rule.c1 * log_at_least_one(pdf.n_star)
    if isinstance(rule, LogarithmicVertical):
        return min(numerator / (pdf.n_star * density), 1.0)
    return min(numerator / (pdf.n_star * density * distance), 1.0)


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


def evaluate_rows(predicate, x, ids, avs, cushion=0.0):
    """``evaluate_many`` over every row of a population wrapping ``ids``."""
    population = Population.from_ids(ids, avs)
    return predicate.evaluate_many(
        x, population, np.arange(len(ids)), avs, cushion=cushion
    )


class TestVectorizedEvaluation:
    def test_matches_scalar(self, predicate, rng):
        ids = make_node_ids(150)
        avs = rng.uniform(0.05, 0.95, 150)
        x = NodeDescriptor(ids[0], 0.5)
        member, horizontal = evaluate_rows(predicate, x, ids, avs)
        for i, node in enumerate(ids):
            y = NodeDescriptor(node, float(avs[i]))
            assert member[i] == predicate.evaluate(x, y)
            if member[i]:
                expected_kind = predicate.classify(0.5, float(avs[i]))
                assert horizontal[i] == (expected_kind is SliverKind.HORIZONTAL)

    def test_self_excluded(self, predicate, rng):
        ids = make_node_ids(10)
        avs = np.full(10, 0.5)
        member, _ = evaluate_rows(predicate, NodeDescriptor(ids[3], 0.5), ids, avs)
        assert not member[3]

    def test_cushion_vectorized(self, predicate, rng):
        ids = make_node_ids(200)
        avs = rng.uniform(0.05, 0.95, 200)
        x = NodeDescriptor(ids[0], 0.5)
        base, _ = evaluate_rows(predicate, x, ids, avs)
        wide, _ = evaluate_rows(predicate, x, ids, avs, cushion=0.3)
        assert wide.sum() >= base.sum()
        assert (wide | ~base).all()  # base members stay members

    def test_shape_mismatch_rejected(self, predicate):
        ids = make_node_ids(5)
        population = Population.from_ids(ids, np.full(5, 0.5))
        with pytest.raises(ValueError):
            predicate.evaluate_many(
                NodeDescriptor(ids[0], 0.5), population, np.arange(5), np.array([0.5, 0.5])
            )

    def test_scalar_hash_fallback(self, pdf, rng):
        predicate = paper_predicate(pdf, hash_fn=DigestPairHash("sha1"))
        ids = make_node_ids(40)
        avs = rng.uniform(0.1, 0.9, 40)
        x = NodeDescriptor(ids[0], 0.5)
        member, _ = evaluate_rows(predicate, x, ids, avs)
        for i, node in enumerate(ids):
            assert member[i] == predicate.evaluate(
                x, NodeDescriptor(node, float(avs[i]))
            )


POOL = make_node_ids(40)
PARITY_PDF = AvailabilityPdf.from_samples(np.linspace(0.05, 0.95, 200))


@pytest.mark.parametrize("hash_name", ["affine64", "mix64", "sha1"])
@given(
    owner=st.integers(0, len(POOL) - 1),
    rows=st.lists(st.integers(0, len(POOL) - 1), min_size=0, max_size=30),
    avs=st.lists(st.floats(0.0, 1.0), min_size=len(POOL), max_size=len(POOL)),
    owner_av=st.floats(0.0, 1.0),
    cushion=st.sampled_from([0.0, 0.05, 0.3]),
)
@settings(max_examples=60, deadline=None)
def test_row_form_matches_scalar_evaluation(hash_name, owner, rows, avs, owner_av, cushion):
    """The row-form ``evaluate_many`` equals per-candidate
    ``evaluate``/``evaluate_kind`` for every hash kind, the owner's own
    row (never a member) and a nonzero cushion included."""
    predicate = paper_predicate(PARITY_PDF, hash_fn=make_hash(hash_name))
    population = Population.from_ids(POOL, avs)
    rows = np.array(rows + [owner], dtype=np.int64)
    candidate_avs = np.asarray(avs)[rows]
    x = NodeDescriptor(POOL[owner], owner_av)
    member, horizontal = predicate.evaluate_many(
        x, population, rows, candidate_avs, cushion=cushion
    )
    assert not member[-1]
    for i, row in enumerate(rows.tolist()):
        y = NodeDescriptor(POOL[row], float(candidate_avs[i]))
        assert member[i] == predicate.evaluate(x, y, cushion=cushion)
        kind = predicate.evaluate_kind(x, y, cushion=cushion)
        assert (kind is not None) == member[i]
        if kind is not None:
            assert horizontal[i] == (kind is SliverKind.HORIZONTAL)


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
        block = rule.thresholds(avs[:, None], avs[None, :3], pdf)
        assert np.broadcast_to(block, (avs.size, 3))[:, 0].tolist() == batched.tolist()
        fresh = LogarithmicConstantHorizontal(c2=1.0, epsilon=0.1)
        backwards = [fresh.threshold(float(a), 0.0, pdf) for a in avs[::-1]][::-1]
        assert backwards == batched.tolist()
        assert rule.threshold(0.50049, 0.0, pdf) == rule.threshold(0.5, 0.0, pdf)

    def test_horizontal_grid_belongs_to_its_pdf(self):
        """One II.B rule reused over PDFs that are freed in turn (so a
        new PDF may take a freed one's ``id``) answers for each PDF, as
        a fresh rule does."""
        rng = np.random.default_rng(3)
        rule = LogarithmicConstantHorizontal()
        stale = 0
        for _ in range(200):
            pdf = AvailabilityPdf.from_samples(
                rng.uniform(0.0, 1.0, 50), n_star=float(rng.integers(20, 2000))
            )
            expected = LogarithmicConstantHorizontal().threshold(0.5, 0.0, pdf)
            stale += rule.threshold(0.5, 0.0, pdf) != expected
            del pdf
        assert stale == 0

    @pytest.mark.parametrize("av_x", [-0.01, 1.01])
    def test_horizontal_rule_refuses_availabilities_off_the_grid(self, pdf, av_x):
        rule = LogarithmicConstantHorizontal()
        with pytest.raises(ValueError, match="outside"):
            rule.threshold(av_x, 0.5, pdf)
        with pytest.raises(ValueError, match="outside"):
            rule.thresholds(np.array([0.5, av_x]), 0.5, pdf)

    @settings(max_examples=60, deadline=None)
    @given(
        pdf_index=st.integers(0, len(_KERNEL_PDFS) - 1),
        xs=st.lists(_KERNEL_AVAILABILITIES, min_size=1, max_size=6),
        ys=st.lists(_KERNEL_AVAILABILITIES, min_size=1, max_size=10),
    )
    def test_vectorized_rules_match_scalar(self, pdf_index, xs, ys):
        """Every rule's kernel gives the same floats in each shape its
        callers use — one pair, a source against rows, a block
        (``[:, None]`` against ``[None, :]``) and paired arrays — and they
        equal the paper's formulas written in plain floats, at bin edges
        and in an empty bin too."""
        pdf = _KERNEL_PDFS[pdf_index]
        for rule in _kernel_rules():
            expected = np.array([[_reference(rule, x, y, pdf) for y in ys] for x in xs])
            scalar = np.array([[rule.threshold(x, y, pdf) for y in ys] for x in xs])
            av_x = np.array(xs)
            av_y = np.array(ys)
            shape = expected.shape
            rows = np.array(
                [np.broadcast_to(rule.thresholds(x, av_y, pdf), av_y.shape) for x in xs]
            )
            block = np.broadcast_to(rule.thresholds(av_x[:, None], av_y[None, :], pdf), shape)
            paired = np.broadcast_to(
                rule.thresholds(np.repeat(av_x, av_y.size), np.tile(av_y, av_x.size), pdf),
                (expected.size,),
            ).reshape(shape)
            for form in (scalar, rows, block, paired):
                assert form.dtype == np.float64
                assert form.tobytes() == expected.tobytes(), repr(rule)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ConstantVertical(1.5)
        with pytest.raises(ValueError):
            RandomUniformRule(-0.1)
