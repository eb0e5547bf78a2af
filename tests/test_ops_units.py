"""Unit tests for operation specs, messages, and forwarding policies."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ids import make_node_ids
from repro.core.membership import MemberEntry
from repro.core.predicates import SliverKind
from repro.ops.anycast import (
    POLICY_NAMES,
    AnnealingPolicy,
    GreedyPolicy,
    RetriedGreedyPolicy,
    _keep_mask,
    make_policy,
)
from repro.ops.messages import AnycastMessage, MulticastMessage
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


_IDS = make_node_ids(8)
_node_ids = st.sampled_from(_IDS)
_targets = st.one_of(
    st.builds(TargetSpec.threshold, st.floats(0.0, 0.99)),
    st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0)).map(lambda r: TargetSpec.range(*r)),
)
_anycast_messages = st.builds(
    AnycastMessage,
    op_id=st.integers(0, 10**6),
    target=_targets,
    ttl=st.integers(-2, 12),
    retry=st.integers(0, 10),
    attempt=st.integers(0, 10**6),
    origin=_node_ids,
    sender=_node_ids,
    path=st.lists(_node_ids, min_size=1, max_size=6).map(tuple),
    multicast_payload=st.booleans(),
)
_multicast_messages = st.builds(
    MulticastMessage,
    op_id=st.integers(0, 10**6),
    target=_targets,
    root=_node_ids,
    sender=_node_ids,
    mode=st.sampled_from(["flood", "gossip"]),
    hop_count=st.integers(0, 50),
)


def _as_fields(message):
    return {f.name: getattr(message, f.name) for f in dataclasses.fields(message)}


class TestForwardedCopiesMatchReplace:
    """``hop``/``forwarded`` build their copy positionally; field for
    field it must be the ``dataclasses.replace`` result it stands for."""

    @given(_anycast_messages, _node_ids, _node_ids, st.integers(0, 10**6),
           st.one_of(st.none(), st.integers(0, 10)))
    def test_hop(self, message, sender, next_hop, attempt, retry):
        want = dataclasses.replace(
            message,
            ttl=message.ttl - 1,
            sender=sender,
            attempt=attempt,
            retry=message.retry if retry is None else retry,
            path=message.path + (next_hop,),
        )
        if retry is None:
            got = message.hop(sender, next_hop, attempt)
        else:
            got = message.hop(sender, next_hop, attempt, retry=retry)
        assert type(got) is AnycastMessage
        assert _as_fields(got) == _as_fields(want)

    @given(_multicast_messages, _node_ids)
    def test_forwarded(self, message, sender):
        want = dataclasses.replace(message, sender=sender, hop_count=message.hop_count + 1)
        got = message.forwarded(sender)
        assert type(got) is MulticastMessage
        assert _as_fields(got) == _as_fields(want)


_digests = st.integers(0, 2**64 - 1)


class TestPathExclusionMask:
    """One compare per path digest gives ``~np.isin``'s mask."""

    @given(
        st.lists(_digests, max_size=24, unique=True),
        st.lists(st.one_of(_digests, st.integers(2**63, 2**64 - 1)), max_size=10),
        st.data(),
    )
    def test_matches_isin(self, view, absent, data):
        digests = np.array(view, dtype=np.uint64)
        members = data.draw(st.lists(st.sampled_from(view), max_size=10)) if view else []
        path = data.draw(st.permutations(members + absent))
        want = ~np.isin(digests, np.array(path, dtype=np.uint64))
        for form in (path, np.array(path, dtype=np.uint64)):
            got = _keep_mask(digests, form)
            assert got.dtype == bool and got.shape == digests.shape
            assert np.array_equal(got, want)

    def test_edge_cases(self):
        high = [2**63, 2**64 - 1, 2**63 + 12345]
        digests = np.array([5, *high, 7], dtype=np.uint64)
        cases = (
            [],  # empty path
            [7, 7, 5, 7],  # duplicates
            [9, 11, 2**63 + 1],  # nothing on the path is in the view
            [2**64 - 1, 2**63, 2**64 - 1],  # high-bit digests, repeated
        )
        for path in cases:
            want = ~np.isin(digests, np.array(path, dtype=np.uint64))
            assert np.array_equal(_keep_mask(digests, path), want), path
        assert _keep_mask(np.zeros(0, dtype=np.uint64), [1, 2]).shape == (0,)


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
