"""Parity and unit tests for the columnar :class:`MembershipTable`.

The batched operations (``upsert_many``, ``refresh_round``) must be
observationally identical to the scalar ``upsert``/``remove`` loops they
replace — same entries, same values, same listing order — across sliver
kinds and arbitrary churn sequences.  The hypothesis property test
drives two tables through the same randomized install/refresh/scalar-op
schedule, one via the scalar reference loop and one via the bulk path,
and asserts entry-for-entry equality after every step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import digest_array, make_node_ids
from repro.core.membership import MembershipTable, SliverSelector
from repro.core.predicates import SliverKind

POOL = make_node_ids(24)
OWNER = POOL[0]
CANDIDATES = POOL[1:]


def _kind(flag: bool) -> SliverKind:
    return SliverKind.HORIZONTAL if flag else SliverKind.VERTICAL


def assert_tables_identical(scalar: MembershipTable, batched: MembershipTable) -> None:
    """Entry-for-entry equality, including listing order and both slivers."""
    assert scalar.total_count == batched.total_count
    assert scalar.horizontal_count == batched.horizontal_count
    assert scalar.vertical_count == batched.vertical_count
    assert scalar.horizontal == batched.horizontal
    assert scalar.vertical == batched.vertical
    assert scalar.entries() == batched.entries()
    # the batched membership test is `in`, for every candidate at once
    assert batched.contains_digests(digest_array(CANDIDATES)).tolist() == [
        node in scalar for node in CANDIDATES
    ]
    # the cached columnar view (left filled by the previous step's call)
    # was dropped by whatever mutated the table since
    view = batched.neighbor_arrays()
    assert list(view.nodes) == [entry.node for entry in scalar.entries()]
    assert view.availabilities.tolist() == [e.availability for e in scalar.entries()]
    assert view.horizontal.tolist() == [
        e.kind is SliverKind.HORIZONTAL for e in scalar.entries()
    ]


# ----------------------------------------------------------------------
# Hypothesis churn schedules
# ----------------------------------------------------------------------
install_batches = st.lists(
    st.tuples(
        st.integers(0, len(CANDIDATES) - 1),  # candidate index
        st.floats(0.0, 1.0),  # availability
        st.booleans(),  # horizontal?
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda item: item[0],
)

refresh_specs = st.lists(
    st.tuples(
        st.booleans(),  # keep?
        st.floats(0.0, 1.0),  # re-fetched availability
        st.booleans(),  # re-classified horizontal?
    ),
    min_size=0,
    max_size=64,
)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("install"), install_batches),
        st.tuples(st.just("refresh"), refresh_specs),
        st.tuples(st.just("remove"), st.integers(0, len(CANDIDATES) - 1)),
        st.tuples(st.just("upsert"), install_batches.map(lambda b: b[0])),
    ),
    min_size=1,
    max_size=16,
)


@given(schedule=steps)
@settings(max_examples=120, deadline=None)
def test_bulk_ops_match_scalar_reference(schedule):
    """upsert_many + refresh_round ≡ the scalar upsert/remove loops,
    entry for entry, across kinds and churn sequences."""
    scalar = MembershipTable(OWNER)
    batched = MembershipTable(OWNER)
    now = 0.0
    for op, payload in schedule:
        now += 10.0
        if op == "install":
            nodes = [CANDIDATES[i] for i, _, _ in payload]
            avs = np.array([av for _, av, _ in payload], dtype=float)
            flags = np.array([h for _, _, h in payload], dtype=bool)
            # Scalar reference: one upsert per batch position, in order.
            for node, av, flag in zip(nodes, avs, flags):
                scalar.upsert(node, float(av), _kind(bool(flag)), now)
            assert batched.upsert_many(nodes, avs, flags, now) == len(nodes)
        elif op == "refresh":
            # One refresh round: walk the current neighbors in listing
            # order; evict where keep=False, re-cache otherwise.
            entries = list(scalar.all_entries())
            decisions = payload[: len(entries)]
            decisions += [(True, 0.5, True)] * (len(entries) - len(decisions))
            for entry, (keep, av, flag) in zip(entries, decisions):
                if keep:
                    scalar.upsert(entry.node, float(av), _kind(bool(flag)), now)
                else:
                    scalar.remove(entry.node)
            view = batched.neighbor_arrays()
            keep_mask = np.array([d[0] for d in decisions], dtype=bool)
            avs = np.array([d[1] for d in decisions], dtype=float)
            flags = np.array([d[2] for d in decisions], dtype=bool)
            evicted = batched.refresh_round(view.slots, avs, flags, keep_mask, now)
            assert evicted == int(np.count_nonzero(~keep_mask))
        elif op == "remove":
            node = CANDIDATES[payload]
            assert scalar.remove(node) == batched.remove(node)
        else:  # scalar upsert on the batched table too (mixed usage)
            index, av, flag = payload
            node = CANDIDATES[index]
            scalar.upsert(node, av, _kind(flag), now)
            batched.upsert(node, av, _kind(flag), now)
        assert_tables_identical(scalar, batched)


# ----------------------------------------------------------------------
# Bulk-operation unit tests
# ----------------------------------------------------------------------
class TestUpsertMany:
    def test_empty_batch_is_noop(self):
        table = MembershipTable(OWNER)
        assert table.upsert_many([], np.empty(0), np.empty(0, dtype=bool), 0.0) == 0
        assert table.total_count == 0

    def test_owner_in_batch_rejected(self):
        table = MembershipTable(OWNER)
        with pytest.raises(ValueError, match="own neighbor"):
            table.upsert_many(
                [CANDIDATES[0], OWNER], np.array([0.5, 0.6]),
                np.array([True, False]), now=0.0,
            )

    def test_duplicate_nodes_rejected(self):
        table = MembershipTable(OWNER)
        with pytest.raises(ValueError, match="unique"):
            table.upsert_many(
                [CANDIDATES[0], CANDIDATES[0]], np.array([0.5, 0.6]),
                np.array([True, False]), now=0.0,
            )

    def test_mismatched_lengths_rejected(self):
        table = MembershipTable(OWNER)
        with pytest.raises(ValueError, match="parallel"):
            table.upsert_many(
                [CANDIDATES[0]], np.array([0.5, 0.6]), np.array([True]), now=0.0
            )

    def test_updates_preserve_added_at(self):
        table = MembershipTable(OWNER)
        table.upsert_many(
            CANDIDATES[:2], np.array([0.2, 0.8]), np.array([True, False]), now=1.0
        )
        table.upsert_many(
            CANDIDATES[:3], np.array([0.3, 0.7, 0.5]),
            np.array([False, False, True]), now=2.0,
        )
        first = table.get(CANDIDATES[0])
        assert first.added_at == 1.0
        assert first.checked_at == 2.0
        assert first.kind is SliverKind.VERTICAL
        assert table.get(CANDIDATES[2]).added_at == 2.0
        assert table.total_count == 3

    def test_precomputed_digests_accepted(self):
        table = MembershipTable(OWNER)
        nodes = CANDIDATES[:4]
        digests = np.array([n.digest64 for n in nodes], dtype=np.uint64)
        table.upsert_many(
            nodes, np.linspace(0.1, 0.9, 4), np.array([True, True, False, False]),
            now=0.0, digests=digests,
        )
        assert table.neighbor_ids() == list(nodes[:2]) + list(nodes[2:])

    def test_scalar_lookup_after_bulk_install(self):
        table = MembershipTable(OWNER)
        table.upsert_many(
            CANDIDATES[:5], np.linspace(0.1, 0.5, 5), np.ones(5, dtype=bool), now=0.0
        )
        assert CANDIDATES[3] in table
        assert table.get(CANDIDATES[3]).availability == pytest.approx(0.4)
        assert table.get(CANDIDATES[10]) is None


class TestRefreshRound:
    def _installed(self):
        table = MembershipTable(OWNER)
        table.upsert_many(
            CANDIDATES[:6], np.linspace(0.1, 0.6, 6),
            np.array([True, True, True, False, False, False]), now=0.0,
        )
        return table

    def test_evicts_and_recaches(self):
        table = self._installed()
        view = table.neighbor_arrays()
        keep = np.array([True, False, True, True, False, True])
        new_avs = view.availabilities + 0.1
        evicted = table.refresh_round(
            view.slots, new_avs, view.horizontal, keep, now=5.0
        )
        assert evicted == 2
        assert table.total_count == 4
        survivor = table.get(view.nodes[0])
        assert survivor.checked_at == 5.0
        assert survivor.availability == pytest.approx(view.availabilities[0] + 0.1)
        assert view.nodes[1] not in table

    def test_sliver_reclassification_moves_entry(self):
        table = self._installed()
        view = table.neighbor_arrays()
        flags = view.horizontal.copy()
        flags[0] = False  # HS -> VS
        table.refresh_round(
            view.slots, view.availabilities, flags,
            np.ones(view.slots.size, dtype=bool), now=5.0,
        )
        moved = table.get(view.nodes[0])
        assert moved.kind is SliverKind.VERTICAL
        # Re-seq in pass order: the mover was refreshed first, so it now
        # leads the VS listing (exactly what the scalar loop produces).
        assert table.vertical[0].node == view.nodes[0]

    def test_stale_slots_rejected(self):
        table = self._installed()
        view = table.neighbor_arrays()
        table.remove(view.nodes[0])
        with pytest.raises(ValueError, match="stale slot"):
            table.refresh_round(
                view.slots, view.availabilities, view.horizontal,
                np.ones(view.slots.size, dtype=bool), now=5.0,
            )

    def test_empty_round_is_noop(self):
        table = MembershipTable(OWNER)
        view = table.neighbor_arrays()
        assert table.refresh_round(
            view.slots, view.availabilities, view.horizontal,
            np.empty(0, dtype=bool), now=1.0,
        ) == 0

    def test_mismatched_lengths_rejected(self):
        table = self._installed()
        view = table.neighbor_arrays()
        with pytest.raises(ValueError, match="parallel"):
            table.refresh_round(
                view.slots, view.availabilities[:2], view.horizontal,
                np.ones(view.slots.size, dtype=bool), now=1.0,
            )


class TestNeighborViewCache:
    """neighbor_arrays() is one cached read-only view per table state."""

    @staticmethod
    def _table():
        from repro.core.population import Population

        population = Population.from_ids(tuple(POOL), np.linspace(0.1, 0.9, len(POOL)))
        table = MembershipTable(OWNER, population=population)
        table.upsert_rows(
            np.arange(1, 13), np.linspace(0.1, 0.9, 12), np.arange(12) % 2 == 0, now=0.0
        )
        return table

    def test_unmutated_table_hands_out_the_same_view(self):
        table = self._table()
        bare = table.neighbor_arrays(with_nodes=False)
        assert bare.nodes is None
        assert table.neighbor_arrays(with_nodes=False) is bare
        full = table.neighbor_arrays()
        assert table.neighbor_arrays() is full
        assert list(full.nodes) == table.neighbor_ids()
        # Both variants share the columns; only the nodes column differs.
        assert full.slots is bare.slots and full.availabilities is bare.availabilities
        assert table.neighbor_arrays(with_nodes=False).nodes is None

    def test_view_arrays_are_read_only(self):
        view = self._table().neighbor_arrays()
        for column in view:
            assert not column.flags.writeable
        with pytest.raises(ValueError):
            view.availabilities[0] = 0.0

    def test_every_mutator_drops_the_view(self):
        mutators = {
            "upsert": lambda t, v: t.upsert(CANDIDATES[20], 0.5, SliverKind.VERTICAL, 1.0),
            "upsert-existing": lambda t, v: t.upsert(v.nodes[3], 0.5, SliverKind.VERTICAL, 1.0),
            "remove": lambda t, v: t.remove(v.nodes[0]),
            "clear": lambda t, v: t.clear(),
            "upsert_many": lambda t, v: t.upsert_many(
                CANDIDATES[18:20], np.array([0.3, 0.4]), np.array([True, False]), now=1.0
            ),
            "upsert_rows": lambda t, v: t.upsert_rows(
                np.array([2, 15]), np.array([0.3, 0.4]), np.array([True, False]), now=1.0
            ),
            "refresh_round": lambda t, v: t.refresh_round(
                v.slots, v.availabilities + 0.01, ~v.horizontal,
                np.arange(v.slots.size) % 3 != 0, now=1.0,
            ),
        }
        for name, mutate in mutators.items():
            table = self._table()
            before = table.neighbor_arrays()
            mutate(table, before)
            after = table.neighbor_arrays()
            assert after is not before, name
            fresh = table._build_view()
            for cached, rebuilt in zip(table.neighbor_arrays(with_nodes=False), fresh):
                assert (cached is None and rebuilt is None) or cached.tolist() == rebuilt.tolist(), name
            assert list(after.nodes) == table.neighbor_ids(), name

    def test_compaction_drops_the_view(self):
        # Through the public surface: slots move under a cached view when
        # removals trigger a compaction; the next view names the new slots.
        table = self._table()
        high_water = table._size
        for node in table.neighbor_ids()[:-1]:
            table.neighbor_arrays()
            table.remove(node)
        assert table._size < high_water  # compaction happened
        view = table.neighbor_arrays()
        assert table._alive[view.slots].all()
        assert list(view.nodes) == table.neighbor_ids()
        # And the compaction step itself drops it, not only the remove
        # that led to it.
        table = self._table()
        stale = table.neighbor_arrays(with_nodes=False)
        table._alive[stale.slots[:10]] = False
        table._count -= 10
        table._maybe_compact()
        assert table._size == 2
        assert table.neighbor_arrays(with_nodes=False) is not stale

    def test_a_miss_that_mutates_nothing_keeps_the_view(self):
        table = self._table()
        view = table.neighbor_arrays()
        assert not table.remove(CANDIDATES[22])
        assert table.upsert_many([], np.empty(0), np.empty(0, dtype=bool), 1.0) == 0
        assert table.neighbor_arrays() is view


class TestCompaction:
    def test_long_churn_compacts_dead_slots(self):
        """Interleaved installs and evictions must not leak slots."""
        table = MembershipTable(OWNER)
        rng = np.random.default_rng(0)
        for round_no in range(40):
            picks = rng.choice(len(CANDIDATES), size=6, replace=False)
            nodes = [CANDIDATES[i] for i in picks]
            table.upsert_many(
                nodes, rng.uniform(0, 1, 6), rng.uniform(0, 1, 6) < 0.5,
                now=float(round_no),
            )
            view = table.neighbor_arrays()
            keep = rng.uniform(0, 1, view.slots.size) < 0.4
            table.refresh_round(
                view.slots, view.availabilities, view.horizontal, keep,
                now=float(round_no) + 0.5,
            )
        # The slot high-water mark stays bounded by live + dead allowance.
        assert table._size <= table.total_count + max(8, table.total_count) + 6

    def test_neighbor_view_matches_entries_order(self):
        table = MembershipTable(OWNER)
        table.upsert_many(
            CANDIDATES[:8], np.linspace(0.1, 0.8, 8),
            np.array([True, False] * 4), now=0.0,
        )
        view = table.neighbor_arrays()
        assert list(view.nodes) == table.neighbor_ids(SliverSelector.BOTH)
        assert list(view.availabilities) == [
            e.availability for e in table.entries()
        ]
        assert [bool(h) for h in view.horizontal] == [
            e.kind is SliverKind.HORIZONTAL for e in table.entries()
        ]
        assert list(view.digests) == [n.digest64 for n in view.nodes]
