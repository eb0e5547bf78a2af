"""Unit tests for operation specs, messages, and forwarding policies."""

import numpy as np
import pytest

from repro.core.ids import make_node_ids
from repro.core.membership import MemberEntry
from repro.core.predicates import SliverKind
from repro.ops.anycast import (
    POLICY_NAMES,
    AnnealingPolicy,
    GreedyPolicy,
    RetriedGreedyPolicy,
    make_policy,
)
from repro.ops.messages import AnycastMessage
from repro.ops.results import AnycastRecord, AnycastStatus, MulticastRecord
from repro.ops.spec import PAPER_RANGES, PAPER_THRESHOLDS, InitiatorBand, TargetSpec


class TestTargetSpec:
    def test_range_containment_closed(self):
        spec = TargetSpec.range(0.2, 0.3)
        assert spec.contains(0.2)
        assert spec.contains(0.25)
        assert spec.contains(0.3)
        assert not spec.contains(0.19)
        assert not spec.contains(0.31)

    def test_threshold_exclusive_at_bound(self):
        spec = TargetSpec.threshold(0.9)
        assert not spec.contains(0.9)
        assert spec.contains(0.91)
        assert spec.contains(1.0)

    def test_distance_metric(self):
        spec = TargetSpec.range(0.4, 0.6)
        assert spec.distance(0.5) == 0.0
        assert spec.distance(0.3) == pytest.approx(0.1)
        assert spec.distance(0.9) == pytest.approx(0.3)

    def test_describe(self):
        assert TargetSpec.range(0.2, 0.3).describe() == "[0.2, 0.3]"
        assert TargetSpec.threshold(0.9).describe() == "av > 0.9"

    def test_validation(self):
        with pytest.raises(ValueError):
            TargetSpec.range(0.5, 0.4)
        with pytest.raises(ValueError):
            TargetSpec.range(-0.1, 0.5)
        with pytest.raises(ValueError):
            TargetSpec(0.1, 0.2, kind="fancy")

    def test_paper_constants(self):
        assert len(PAPER_RANGES) == 3
        assert len(PAPER_THRESHOLDS) == 3
        assert (0.85, 0.95) in PAPER_RANGES
        assert 0.90 in PAPER_THRESHOLDS


class TestInitiatorBand:
    def test_band_membership(self):
        assert InitiatorBand.contains(InitiatorBand.LOW, 0.1)
        assert InitiatorBand.contains(InitiatorBand.MID, 0.5)
        assert InitiatorBand.contains(InitiatorBand.HIGH, 0.9)
        assert InitiatorBand.contains(InitiatorBand.HIGH, 1.0)
        assert not InitiatorBand.contains(InitiatorBand.LOW, 0.5)

    def test_bands_partition(self):
        for availability in np.linspace(0.0, 1.0, 101):
            count = sum(
                InitiatorBand.contains(b, float(availability))
                for b in (InitiatorBand.LOW, InitiatorBand.MID, InitiatorBand.HIGH)
            )
            assert count == 1

    def test_unknown_band_rejected(self):
        with pytest.raises(ValueError):
            InitiatorBand.validate("extreme")


class TestAnycastMessage:
    def test_hop_semantics(self):
        ids = make_node_ids(4)
        message = AnycastMessage(
            op_id=1, target=TargetSpec.range(0.8, 0.9), ttl=6, retry=8,
            attempt=1, origin=ids[0], sender=ids[0], path=(ids[0],),
        )
        hopped = message.hop(ids[0], ids[1], attempt=2)
        assert hopped.ttl == 5
        assert hopped.path == (ids[0], ids[1])
        assert hopped.sender == ids[0]
        assert hopped.hops_taken == 1
        assert message.ttl == 6  # immutability

    def test_hop_with_retry_update(self):
        ids = make_node_ids(3)
        message = AnycastMessage(
            op_id=1, target=TargetSpec.range(0.8, 0.9), ttl=6, retry=8,
            attempt=1, origin=ids[0], sender=ids[0], path=(ids[0],),
        )
        hopped = message.hop(ids[0], ids[1], attempt=2, retry=3)
        assert hopped.retry == 3


def _entries(availabilities):
    ids = make_node_ids(len(availabilities))
    return [
        MemberEntry(node=n, availability=a, kind=SliverKind.VERTICAL,
                    added_at=0.0, checked_at=0.0)
        for n, a in zip(ids, availabilities)
    ]


def _order(policy, entries, target, ttl, rng, exclude):
    """``policy.order_candidates`` over the columnar form of ``entries``."""
    nodes = np.empty(len(entries), dtype=object)
    nodes[:] = [e.node for e in entries]
    avs = np.array([e.availability for e in entries], dtype=float)
    digests = np.array([e.node.digest64 for e in entries], dtype=np.uint64)
    exclude_digests = np.array([n.digest64 for n in exclude], dtype=np.uint64)
    return policy.order_candidates(
        nodes, avs, target, ttl, rng, exclude_digests, digests
    )


class TestGreedyPolicy:
    def test_in_range_first(self, rng):
        entries = _entries([0.1, 0.87, 0.5, 0.92, 0.3])
        target = TargetSpec.range(0.85, 0.95)
        ordered = _order(GreedyPolicy(), entries, target, 6, rng, set())
        in_range = {entries[1].node, entries[3].node}
        assert set(ordered[:2]) == in_range

    def test_outside_sorted_by_distance(self, rng):
        entries = _entries([0.1, 0.5, 0.3])
        target = TargetSpec.range(0.85, 0.95)
        ordered = _order(GreedyPolicy(), entries, target, 6, rng, set())
        distances = [0.75, 0.35, 0.55]
        expected = [e.node for _, e in sorted(zip(distances, entries))]
        assert ordered == expected

    def test_exclusion(self, rng):
        entries = _entries([0.9, 0.88])
        target = TargetSpec.range(0.85, 0.95)
        ordered = _order(GreedyPolicy(), entries, target, 6, rng, {entries[0].node})
        assert ordered == [entries[1].node]

    def test_empty_entries(self, rng):
        target = TargetSpec.range(0.85, 0.95)
        assert _order(GreedyPolicy(), [], target, 6, rng, set()) == []

    def test_no_ack_wanted(self):
        assert not GreedyPolicy().wants_ack
        assert RetriedGreedyPolicy().wants_ack


class TestAnnealingPolicy:
    def test_in_range_best_never_displaced(self, rng):
        policy = AnnealingPolicy()
        entries = _entries([0.9, 0.1, 0.3, 0.5])
        target = TargetSpec.range(0.85, 0.95)
        for _ in range(50):
            ordered = _order(policy, entries, target, 6, rng, set())
            assert ordered[0] == entries[0].node

    def test_acceptance_probability_shape(self):
        policy = AnnealingPolicy()
        # p decreases as ttl shrinks (for fixed positive delta).
        assert policy.acceptance_probability(0.3, 6) > policy.acceptance_probability(0.3, 1)
        assert policy.acceptance_probability(0.0, 6) == 1.0
        assert policy.acceptance_probability(0.3, 0) == 0.0

    def test_exploration_happens(self, rng):
        policy = AnnealingPolicy()
        entries = _entries([0.7, 0.1, 0.2, 0.3, 0.4])
        target = TargetSpec.range(0.85, 0.95)
        firsts = {
            _order(policy, entries, target, 6, rng, set())[0]
            for _ in range(100)
        }
        assert len(firsts) > 1  # sometimes explores away from greedy best

    def test_single_candidate_passthrough(self, rng):
        policy = AnnealingPolicy()
        entries = _entries([0.5])
        target = TargetSpec.range(0.85, 0.95)
        assert _order(policy, entries, target, 6, rng, set()) == [
            entries[0].node
        ]


class TestPolicyRegistry:
    def test_all_names(self):
        assert set(POLICY_NAMES) == {"greedy", "retry-greedy", "anneal"}
        for name in POLICY_NAMES:
            assert make_policy(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("teleport")


class TestRecords:
    def test_anycast_finalize_pending_becomes_lost(self):
        ids = make_node_ids(1)
        record = AnycastRecord(
            op_id=0, initiator=ids[0], target=TargetSpec.range(0.1, 0.2),
            policy="greedy", selector="hs+vs", started_at=0.0,
        )
        assert not record.delivered
        record.finalize()
        assert record.status == AnycastStatus.LOST

    def test_anycast_finalize_keeps_terminal(self):
        ids = make_node_ids(1)
        record = AnycastRecord(
            op_id=0, initiator=ids[0], target=TargetSpec.range(0.1, 0.2),
            policy="greedy", selector="hs+vs", started_at=0.0,
            status=AnycastStatus.DELIVERED, delivered_at=1.0,
        )
        record.finalize()
        assert record.status == AnycastStatus.DELIVERED
        assert record.latency == pytest.approx(1.0)

    def test_multicast_metrics(self):
        ids = make_node_ids(6)
        record = MulticastRecord(
            op_id=0, initiator=ids[0], target=TargetSpec.range(0.8, 0.9),
            mode="flood", selector="hs+vs", started_at=100.0,
            eligible={ids[1], ids[2], ids[3], ids[4]},
        )
        record.deliveries = {ids[1]: 100.1, ids[2]: 100.3}
        record.spam = [(ids[5], 100.2)]
        assert record.reliability() == pytest.approx(0.5)
        assert record.spam_ratio() == pytest.approx(0.25)
        assert record.worst_latency() == pytest.approx(0.3)
        assert record.reached_range

    def test_multicast_empty_eligible_is_nan(self):
        ids = make_node_ids(1)
        record = MulticastRecord(
            op_id=0, initiator=ids[0], target=TargetSpec.range(0.8, 0.9),
            mode="flood", selector="hs+vs", started_at=0.0,
        )
        assert np.isnan(record.reliability())
        assert np.isnan(record.spam_ratio())
        assert record.worst_latency() is None

    def test_row_serialization(self):
        ids = make_node_ids(1)
        record = AnycastRecord(
            op_id=3, initiator=ids[0], target=TargetSpec.threshold(0.9),
            policy="greedy", selector="vs", started_at=0.0,
        )
        row = record.as_row()
        assert row["op_id"] == 3
        assert row["target"] == "av > 0.9"
