"""Unit + property tests for node identifiers and the consistent hashes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import (
    HASH_NAMES,
    DigestPairHash,
    Mix64PairHash,
    make_hash,
)
from repro.core.ids import NodeId, digest_array, make_node_ids


class TestNodeId:
    def test_endpoint_format(self):
        node = NodeId("10.0.0.1", 9000)
        assert node.endpoint == "10.0.0.1:9000"
        assert str(node) == "10.0.0.1:9000"

    def test_equality_and_hashability(self):
        a = NodeId("h", 1)
        b = NodeId("h", 1)
        c = NodeId("h", 2)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_ordering(self):
        assert NodeId("a", 2) < NodeId("b", 1)
        assert NodeId("a", 1) < NodeId("a", 2)

    def test_digest_stable_across_instances(self):
        assert NodeId("x", 5).digest64 == NodeId("x", 5).digest64

    def test_digest_differs_across_nodes(self):
        assert NodeId("x", 5).digest64 != NodeId("x", 6).digest64

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeId("", 1)
        with pytest.raises(ValueError):
            NodeId("h", 0)
        with pytest.raises(ValueError):
            NodeId("h", 70000)

    def test_from_index_unique(self):
        ids = make_node_ids(300)
        assert len(set(ids)) == 300

    def test_from_index_deterministic(self):
        assert NodeId.from_index(77) == NodeId.from_index(77)

    def test_from_index_bounds(self):
        with pytest.raises(ValueError):
            NodeId.from_index(-1)
        with pytest.raises(ValueError):
            NodeId.from_index(1 << 24)

    def test_make_node_ids_validation(self):
        with pytest.raises(ValueError):
            make_node_ids(0)

    def test_digest_array_matches_nodes(self):
        ids = make_node_ids(5)
        arr = digest_array(ids)
        assert arr.dtype == np.uint64
        assert list(arr) == [n.digest64 for n in ids]


class TestHashRegistry:
    def test_all_names_construct(self):
        for name in HASH_NAMES:
            h = make_hash(name)
            assert h.value(NodeId("a", 1), NodeId("b", 2)) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_hash("crc32")


@pytest.mark.parametrize("name", HASH_NAMES)
class TestHashProperties:
    def test_range(self, name):
        h = make_hash(name)
        ids = make_node_ids(40)
        values = [h.value(x, y) for x in ids[:10] for y in ids[10:20]]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_consistency(self, name):
        """Two independent evaluations agree — the verifiability property."""
        h1, h2 = make_hash(name), make_hash(name)
        x, y = NodeId("1.2.3.4", 80), NodeId("5.6.7.8", 443)
        assert h1.value(x, y) == h2.value(x, y)

    def test_directedness(self, name):
        h = make_hash(name)
        ids = make_node_ids(30)
        asymmetric = sum(
            1 for x, y in zip(ids[:15], ids[15:]) if h.value(x, y) != h.value(y, x)
        )
        assert asymmetric >= 14  # essentially always different

    def test_uniformity(self, name):
        h = make_hash(name)
        ids = make_node_ids(60)
        values = [h.value(x, y) for x in ids for y in ids if x != y]
        values = np.array(values)
        assert values.mean() == pytest.approx(0.5, abs=0.03)
        # Decile occupancy roughly even.
        counts, _ = np.histogram(values, bins=10, range=(0, 1))
        assert counts.min() > 0.7 * len(values) / 10


class TestMix64Vectorized:
    def test_matches_scalar(self):
        h = Mix64PairHash()
        ids = make_node_ids(50)
        x = ids[0]
        vector = h.combine(x, h.key_array(digest_array(ids)))
        scalar = np.array([h.value(x, y) for y in ids])
        assert np.allclose(vector, scalar)

    def test_salt_changes_values(self):
        base, salted = Mix64PairHash(), Mix64PairHash(salt=12345)
        x, y = NodeId("a", 1), NodeId("b", 2)
        assert base.value(x, y) != salted.value(x, y)

    def test_salted_vectorized_matches_scalar(self):
        h = Mix64PairHash(salt=99)
        ids = make_node_ids(20)
        vector = h.combine(ids[0], h.key_array(digest_array(ids)))
        scalar = np.array([h.value(ids[0], y) for y in ids])
        assert np.allclose(vector, scalar)

    def test_negative_salt_rejected(self):
        with pytest.raises(ValueError):
            Mix64PairHash(salt=-1)

    def test_supports_vectorized_flag(self):
        assert Mix64PairHash().supports_vectorized
        assert not DigestPairHash("sha1").supports_vectorized

    def test_digest_hash_vectorized_raises(self):
        with pytest.raises(NotImplementedError):
            DigestPairHash("sha1").key_array(np.array([1], dtype=np.uint64))
        with pytest.raises(NotImplementedError):
            DigestPairHash("sha1").combine(NodeId("a", 1), np.array([1], dtype=np.uint64))

    def test_unknown_digest_algorithm_rejected(self):
        with pytest.raises(ValueError):
            DigestPairHash("md4")


@given(host_a=st.integers(0, 1000), host_b=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_hash_consistency_property(host_a, host_b):
    """H(x, y) is a pure function of the two identifiers (hypothesis)."""
    x, y = NodeId.from_index(host_a), NodeId.from_index(host_b)
    for name in ("mix64", "sha1"):
        h = make_hash(name)
        v1, v2 = h.value(x, y), h.value(x, y)
        assert v1 == v2
        assert 0.0 <= v1 < 1.0
