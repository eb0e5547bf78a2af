"""Struct-of-arrays population core and candidate-generated overlay
construction.

Two exactness contracts are property-tested here:

* candidate-generated ``evaluate_all`` — the O(N·k) interval-enumeration
  path over an interval-searchable hash — returns the *identical* CSR
  triple (same arrays, same order) as the exhaustive N×N block sweep,
  across predicate families, epsilons, and cushions;
* a population-backed (row-keyed) membership table is entry-for-entry
  equal to the object-backed seed path through install and refresh
  flows.

Plus the :class:`~repro.core.population.Population` basics (synthetic
digests match the NodeId construction they mirror, row/id round-trips)
and the memmap spill/open round-trip of :class:`ChurnTimeline`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.timeline import ChurnTimeline
from repro.core.availability import AvailabilityPdf
from repro.core.hashing import Affine64PairHash, Mix64PairHash
from repro.core.ids import digest_array, make_node_ids
from repro.core.membership import MembershipTable
from repro.core.population import Population
from repro.core.predicates import AvmemPredicate, SliverKind, paper_predicate
from repro.core.slivers import (
    ConstantHorizontal,
    ConstantVertical,
    LogarithmicConstantHorizontal,
    LogarithmicDecreasingVertical,
    LogarithmicVertical,
    RandomUniformRule,
)
from repro.overlays.graphs import OverlayGraph


# ----------------------------------------------------------------------
# Population
# ----------------------------------------------------------------------
class TestPopulation:
    def test_synthetic_matches_node_id_digests(self):
        n = 50
        pop = Population.synthetic(np.linspace(0.05, 0.95, n))
        assert (pop.digests == digest_array(make_node_ids(n))).all()

    def test_id_of_round_trips_and_caches(self):
        pop = Population.synthetic(np.linspace(0.1, 0.9, 30))
        node = pop.id_of(7)
        assert node == make_node_ids(30)[7]
        assert pop.id_of(7) is node  # cached, not rebuilt
        assert pop.row_of(node) == 7

    def test_from_ids_preserves_identity(self):
        ids = make_node_ids(20)
        pop = Population.from_ids(tuple(ids), np.linspace(0.1, 0.9, 20))
        assert pop.id_of(3) is ids[3]
        assert pop.find_row(ids[11]) == 11

    def test_ids_of_gathers_and_materializes(self):
        ids = make_node_ids(20)
        given_ids = Population.from_ids(tuple(ids), np.linspace(0.1, 0.9, 20))
        rows = np.array([7, 0, 19, 7])
        assert all(a is b for a, b in zip(given_ids.ids_of(rows), (ids[r] for r in rows)))
        synthetic = Population.synthetic(np.linspace(0.1, 0.9, 20))
        first = synthetic.ids_of(rows)  # nothing materialized yet
        assert first == [ids[r] for r in rows]
        assert all(a is b for a, b in zip(synthetic.ids_of(rows), first))
        for bad in (np.array([3, -1]), np.array([20])):
            with pytest.raises(IndexError):
                given_ids.ids_of(bad)

    def test_find_row_unknown_is_minus_one(self):
        pop = Population.synthetic(np.linspace(0.1, 0.9, 10))
        foreign = make_node_ids(12)[11]
        assert pop.find_row(foreign) == -1
        assert foreign not in pop
        with pytest.raises(KeyError):
            pop.row_of(foreign)

    def test_with_availabilities_shares_identity_columns(self):
        pop = Population.synthetic(np.linspace(0.1, 0.9, 25))
        other = pop.with_availabilities(np.linspace(0.9, 0.1, 25))
        assert other.digests is pop.digests
        assert other.id_of(4) is pop.id_of(4)
        assert other.availabilities[0] != pop.availabilities[0]


# ----------------------------------------------------------------------
# Candidate vs exhaustive CSR parity
# ----------------------------------------------------------------------
def _pdf(avs: np.ndarray) -> AvailabilityPdf:
    return AvailabilityPdf.from_samples(avs, online_weighted=False)


def _rule_pair(name: str, epsilon: float):
    if name == "paper":
        return LogarithmicConstantHorizontal(epsilon=epsilon), LogarithmicVertical()
    if name == "constant":
        return ConstantHorizontal(0.7), ConstantVertical(0.15)
    if name == "distance":
        return ConstantHorizontal(0.5), LogarithmicDecreasingVertical()
    if name == "random":
        rule = RandomUniformRule(0.2)
        return rule, rule
    raise AssertionError(name)


avail_arrays = st.lists(
    st.floats(0.01, 0.99, allow_nan=False), min_size=2, max_size=64
).map(lambda xs: np.array(xs, dtype=float))


@given(
    avs=avail_arrays,
    family=st.sampled_from(["paper", "constant", "distance", "random"]),
    epsilon=st.sampled_from([0.03, 0.1, 0.25]),
    cushion=st.sampled_from([0.0, 0.05]),
    salt=st.integers(0, 3),
)
@settings(max_examples=120, deadline=None)
def test_candidate_csr_identical_to_exhaustive(avs, family, epsilon, cushion, salt):
    horizontal, vertical = _rule_pair(family, epsilon)
    predicate = AvmemPredicate(
        horizontal=horizontal,
        vertical=vertical,
        pdf=_pdf(avs),
        epsilon=epsilon,
        hash_fn=Affine64PairHash(salt=salt),
    )
    assert predicate.supports_candidate_generation
    pop = Population.synthetic(avs)
    exhaustive = predicate.evaluate_all_rows(
        pop.digests, avs, cushion=cushion, method="exhaustive"
    )
    candidates = predicate.evaluate_all_rows(
        pop.digests, avs, cushion=cushion, method="candidates"
    )
    for got, want in zip(candidates, exhaustive):
        assert got.dtype == want.dtype
        assert (got == want).all()


def test_candidates_rejected_for_non_interval_hash():
    avs = np.linspace(0.1, 0.9, 12)
    predicate = paper_predicate(_pdf(avs), hash_fn=Mix64PairHash())
    assert not predicate.supports_candidate_generation
    pop = Population.synthetic(avs)
    # Candidates are the row-space default; there is no fallback to the
    # sweep, and the old "auto" mode is gone.
    for kwargs in ({}, {"method": "candidates"}, {"method": "auto"}):
        with pytest.raises(ValueError):
            predicate.evaluate_all_rows(pop.digests, avs, **kwargs)
    with pytest.raises(ValueError):
        OverlayGraph.build_rows(pop, predicate)
    src, _, _ = predicate.evaluate_all_rows(pop.digests, avs, method="exhaustive")
    assert src.size


def test_build_rows_matches_build(small_population):
    descriptors, _, predicate = small_population
    avs = np.array([d.availability for d in descriptors])
    pop = Population.from_ids(tuple(d.node for d in descriptors), avs)
    via_build = OverlayGraph.build(descriptors, predicate)
    via_rows = OverlayGraph.build_rows(pop, predicate)
    assert (via_rows.src_indices == via_build.src_indices).all()
    assert (via_rows.dst_indices == via_build.dst_indices).all()
    assert (via_rows.horizontal == via_build.horizontal).all()
    assert via_rows.ids == via_build.ids


# ----------------------------------------------------------------------
# Row-keyed membership == object-keyed membership
# ----------------------------------------------------------------------
batch_lists = st.lists(
    st.tuples(
        st.integers(1, 29),  # population row (owner is row 0)
        st.floats(0.01, 0.99, allow_nan=False),
        st.booleans(),
    ),
    min_size=0,
    max_size=12,
)


@given(batches=st.lists(batch_lists, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_row_table_matches_object_table(batches):
    """A table filled by row in bulk and one filled id by id through the
    scalar ``upsert`` hold the same entries."""
    pop = Population.synthetic(np.linspace(0.05, 0.95, 30))
    owner = pop.id_of(0)
    row_table = MembershipTable(owner, population=pop)
    obj_table = MembershipTable(owner, population=pop)
    now = 0.0
    for batch in batches:
        seen = set()
        rows, avs, kinds = [], [], []
        for row, av, horizontal in batch:
            if row in seen:
                continue
            seen.add(row)
            rows.append(row)
            avs.append(av)
            kinds.append(horizontal)
        if not rows:
            continue
        now += 10.0
        rows = np.array(rows, dtype=np.int64)
        avs = np.array(avs)
        kinds = np.array(kinds, dtype=bool)
        row_table.upsert_rows(rows, avs, kinds, now=now)
        for node, av, horizontal in zip(pop.ids_of(rows), avs, kinds):
            kind = SliverKind.HORIZONTAL if horizontal else SliverKind.VERTICAL
            obj_table.upsert(node, float(av), kind, now)
        assert row_table.entries() == obj_table.entries()
    # One refresh round applied identically to both tables: evict every
    # other listed neighbor, flip the rest's sliver kind.
    row_view = row_table.neighbor_arrays(with_nodes=False)
    obj_view = obj_table.neighbor_arrays()
    assert row_view.nodes is None
    assert (row_view.digests == obj_view.digests).all()
    assert (pop.digests[row_view.rows] == row_view.digests).all()
    if row_view.slots.size:
        keep = np.arange(row_view.slots.size) % 2 == 0
        new_avs = np.linspace(0.2, 0.8, row_view.slots.size)
        flipped = ~row_view.horizontal
        evicted_rows = row_table.refresh_round(
            row_view.slots, new_avs, flipped, keep, now=now + 5.0
        )
        evicted_objs = obj_table.refresh_round(
            obj_view.slots, new_avs, flipped, keep, now=now + 5.0
        )
        assert evicted_rows == evicted_objs
        assert row_table.entries() == obj_table.entries()


def test_upsert_rows_validation():
    pop = Population.synthetic(np.linspace(0.05, 0.95, 10))
    table = MembershipTable(pop.id_of(0), population=pop)
    with pytest.raises(ValueError, match="own neighbor"):
        table.upsert_rows(
            np.array([0]), np.array([0.5]), np.array([True]), now=0.0
        )
    with pytest.raises(ValueError, match="unique"):
        table.upsert_rows(
            np.array([1, 1]), np.array([0.5, 0.6]), np.array([True, False]), now=0.0
        )


# ----------------------------------------------------------------------
# Memmap timeline round-trip
# ----------------------------------------------------------------------
def test_timeline_spill_and_open_round_trip(tmp_path, rng):
    n = 60
    horizon = 50_000.0
    edges = np.sort(rng.uniform(0.0, horizon, (n, 6)), axis=1)
    timeline = ChurnTimeline(
        n,
        horizon,
        np.repeat(np.arange(n, dtype=np.int64), 3),
        edges[:, 0::2].ravel(),
        edges[:, 1::2].ravel(),
    )
    nodes = rng.integers(0, n, 300, dtype=np.int64)
    times = rng.uniform(0.0, horizon, 300)
    expect_online = timeline.is_online_array(nodes, times)
    expect_avail = timeline.availability_array(nodes, times)
    expect_mask = timeline.online_mask(horizon / 2)

    storage = str(tmp_path / "spill")
    returned = timeline.spill_to(storage)
    assert returned is timeline
    assert isinstance(timeline.starts, np.memmap)
    assert (timeline.availability_array(nodes, times) == expect_avail).all()

    reopened = ChurnTimeline.open(storage)
    reopened.validate()
    assert reopened.n_nodes == n and reopened.horizon == horizon
    assert (reopened.is_online_array(nodes, times) == expect_online).all()
    assert (reopened.availability_array(nodes, times) == expect_avail).all()
    assert (reopened.online_mask(horizon / 2) == expect_mask).all()
    assert (reopened.presence_snapshot(horizon / 2) == expect_mask).all()

    trace = reopened.to_trace()
    for got, want in zip(trace.sessions(4), timeline.sessions_of(4)):
        assert got.tolist() == want.tolist()


def test_open_rejects_foreign_directory(tmp_path):
    with pytest.raises((FileNotFoundError, ValueError)):
        ChurnTimeline.open(str(tmp_path))
