"""Row-space discovery against the code it replaced.

``tests/reference/discovery.py`` holds the population-walking sampler
and the per-candidate discovery loop verbatim.  The shipped sampler must
return the reference's views *and* leave the generator where the
reference leaves it; a shipped discovery round must leave the table,
the return value and the cache accounting exactly as the loop does.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.trace import ChurnTrace
from repro.core.availability import AvailabilityPdf
from repro.core.config import AvmemConfig
from repro.core.ids import make_node_ids
from repro.core.node import AvmemNode
from repro.core.predicates import paper_predicate
from repro.monitor.cache import CachedAvailabilityView
from repro.monitor.coarse_view import GlobalSampleView, ShuffledCoarseView
from repro.monitor.oracle import OracleAvailability
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.simulation import AvmemSimulation, SimulationSettings

from reference.discovery import ReferenceGlobalSampleView
from reference.discovery import discovery_step as reference_discovery_step

EPOCH = 1200.0


class ScalarPresence:
    """A presence oracle with the scalar protocol only (no row space)."""

    def __init__(self, trace: ChurnTrace):
        self._trace = trace

    def is_online(self, node, time: float) -> bool:
        return self._trace.is_online(node, time)


def matrix_trace(ids, rng: np.random.Generator, epochs: int, p_online: float) -> ChurnTrace:
    return ChurnTrace.from_matrix(rng.random((epochs, len(ids))) < p_online, ids, EPOCH)


# ----------------------------------------------------------------------
# The sampler
# ----------------------------------------------------------------------
PRESENCE_KINDS = ("none", "trace", "all-offline", "scalar-only", "partial-trace")


@given(
    n=st.integers(2, 40),
    view_size=st.integers(1, 45),
    stale_fraction=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
    presence_kind=st.sampled_from(PRESENCE_KINDS),
    p_online=st.sampled_from((0.15, 0.5, 0.9)),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(st.floats(0.0, 700.0), st.integers(0, 39)), min_size=1, max_size=25
    ),
)
@settings(max_examples=150, deadline=None)
def test_view_rows_matches_reference_views_and_generator_state(
    n, view_size, stale_fraction, presence_kind, p_online, seed, steps
):
    ids = make_node_ids(n)
    trace_rng = np.random.default_rng(seed ^ 0x5EED)
    if presence_kind == "none":
        presence = None
    elif presence_kind == "all-offline":
        # nobody online: both samplers fall back to the whole population
        presence = matrix_trace(ids, trace_rng, 4, 0.0)
    elif presence_kind == "partial-trace":
        # the trace has never heard of the last node: always offline
        known = ids[:-1] if n > 2 else ids
        presence = matrix_trace(known, trace_rng, 4, p_online)
    else:
        presence = matrix_trace(ids, trace_rng, 4, p_online)
        if presence_kind == "scalar-only":
            presence = ScalarPresence(presence)
    sim = Simulator()
    shipped = GlobalSampleView(
        sim, ids, view_size, np.random.default_rng(seed),
        presence=presence, stale_fraction=stale_fraction,
    )
    reference = ReferenceGlobalSampleView(
        sim, ids, view_size, np.random.default_rng(seed),
        presence=presence, stale_fraction=stale_fraction,
    )
    for advance, pick in steps:
        sim.run_until(sim.now + advance)
        row = pick % n
        want = reference.view(ids[row])
        rows = shipped.view_rows(row)
        assert tuple(ids[r] for r in rows.tolist()) == want
        assert shipped.view(ids[row]) == want
        assert (
            shipped.rng.bit_generator.state == reference.rng.bit_generator.state
        )
        assert len(set(want)) == len(want) and ids[row] not in want


def test_view_rows_covers_owner_online_and_offline():
    """The hypothesis cases above reach both branches of the owner's
    position in the pool; pin one of each explicitly."""
    ids = make_node_ids(12)
    online = np.zeros((2, 12), dtype=bool)
    online[:, :6] = True
    trace = ChurnTrace.from_matrix(online, ids, EPOCH)
    for row in (2, 9):  # online owner, offline owner
        sim = Simulator()
        shipped = GlobalSampleView(sim, ids, 8, np.random.default_rng(4), presence=trace)
        reference = ReferenceGlobalSampleView(
            sim, ids, 8, np.random.default_rng(4), presence=trace
        )
        assert shipped.view(ids[row]) == reference.view(ids[row])
        live = set(shipped.view_rows(row).tolist()) & set(range(6))
        assert row not in live and len(live) == (5 if row == 2 else 6)


def test_shuffled_view_rows_is_the_view():
    ids = make_node_ids(30)
    shuffler = ShuffledCoarseView(
        Simulator(), ids, view_size=8, rng=np.random.default_rng(3), start=False
    )
    shuffler.step()
    for row, node in enumerate(ids):
        assert tuple(ids[r] for r in shuffler.view_rows(row).tolist()) == shuffler.view(node)


# ----------------------------------------------------------------------
# One discovery round
# ----------------------------------------------------------------------
def table_state(node: AvmemNode):
    """Everything a round may change, in listing order."""
    return [
        (e.node, e.availability, e.kind, e.added_at, e.checked_at)
        for e in node.lists.entries()
    ]


def cache_state(node: AvmemNode, ids):
    return [node.availability.entry(other) for other in ids]


def assert_same_node_state(shipped: AvmemNode, reference: AvmemNode, ids) -> None:
    assert table_state(shipped) == table_state(reference)
    assert shipped.discovery_rounds == reference.discovery_rounds
    assert shipped.availability.fetch_count == reference.availability.fetch_count
    assert shipped.availability.hit_count == reference.availability.hit_count
    assert cache_state(shipped, ids) == cache_state(reference, ids)


def id_addressed_system(seed: int, liveness: bool, noise_std: float):
    """N = 36 population-less nodes over an epoch-aligned trace."""
    ids = make_node_ids(36)
    rng = np.random.default_rng(seed)
    trace = matrix_trace(ids, rng, 12, 0.6)
    sim = Simulator()
    network = Network(sim, presence=trace, rng=np.random.default_rng(seed + 1))
    oracle = OracleAvailability(trace, sim, noise_std=noise_std, seed=seed)
    pdf = AvailabilityPdf.from_samples(
        trace.timeline.lifetime_availability_array(), n_star=20.0
    )
    predicate = paper_predicate(pdf)
    coarse = GlobalSampleView(
        sim, ids, 12, rng=np.random.default_rng(seed + 2), presence=trace
    )
    config = replace(AvmemConfig(), discovery_liveness=liveness)
    nodes = [
        AvmemNode(
            node_id, sim, network, predicate, config,
            CachedAvailabilityView(oracle, sim), coarse,
        )
        for node_id in ids
    ]
    return sim, ids, nodes


@pytest.mark.parametrize("liveness", (True, False))
@given(
    seed=st.integers(0, 10_000),
    noise_std=st.sampled_from((0.0, 0.02)),
    gaps=st.lists(st.floats(1.0, 900.0), min_size=2, max_size=5),
)
@settings(max_examples=12, deadline=None)
def test_id_addressed_round_matches_reference_loop(liveness, seed, noise_std, gaps):
    sim_a, ids, shipped = id_addressed_system(seed, liveness, noise_std)
    sim_b, _, reference = id_addressed_system(seed, liveness, noise_std)
    for gap in gaps:
        sim_a.run_until(sim_a.now + gap)
        sim_b.run_until(sim_b.now + gap)
        for node_a, node_b in zip(shipped, reference):
            assert node_a.discovery_step() == reference_discovery_step(node_b)
            assert_same_node_state(node_a, node_b, ids)


@pytest.mark.parametrize("liveness", (True, False))
@given(
    seed=st.integers(0, 10_000),
    gaps=st.lists(st.floats(1.0, 900.0), min_size=2, max_size=4),
)
@settings(max_examples=6, deadline=None)
def test_row_addressed_round_matches_reference_loop(liveness, seed, gaps):
    """Population-backed nodes (the simulation's) on a direct-bootstrapped
    overlay: rounds start from full tables, so the already-a-neighbor
    mask, the liveness probe and listing order are all in play."""

    def build() -> AvmemSimulation:
        config = replace(AvmemConfig(), discovery_liveness=liveness)
        simulation = AvmemSimulation(
            SimulationSettings(hosts=48, epochs=24, seed=seed, protocols="off", config=config)
        )
        simulation.setup(warmup=7200.0, settle=0.0)
        return simulation

    shipped, reference = build(), build()
    ids = shipped.node_ids
    for gap in gaps:
        shipped.sim.run_until(shipped.sim.now + gap)
        reference.sim.run_until(reference.sim.now + gap)
        for node_id in ids:
            node_a, node_b = shipped.nodes[node_id], reference.nodes[node_id]
            assert node_a.population is not None and node_a.row is not None
            assert node_a.discovery_step() == reference_discovery_step(node_b)
            assert_same_node_state(node_a, node_b, ids)
    assert (
        shipped.coarse_view.rng.bit_generator.state
        == reference.coarse_view.rng.bit_generator.state
    )
