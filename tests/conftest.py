"""Shared fixtures for the AVMEM reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.availability import AvailabilityPdf
from repro.core.ids import make_node_ids
from repro.core.node import AvmemNode
from repro.core.population import Population
from repro.core.predicates import NodeDescriptor, paper_predicate
from repro.monitor.cache import CachedAvailabilityView
from repro.ops.engine import OperationEngine
from repro.ops.plan import OperationItem, OperationPlan, OperationTiming
from repro.sim.engine import Simulator
from repro.simulation import AvmemSimulation

# Tier-1 runs every property on the same examples on every machine:
# derandomized, with no local example database that one checkout replays
# and another does not.  Each test keeps its own ``max_examples``.  The
# scheduled CI job explores with fresh random seeds instead
# (``--hypothesis-profile=explore``); a counterexample it finds is pinned
# in the suite with ``@example``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("tier1")


def launch(simulation, kind, target, count=None, settle=30.0, **item_fields):
    """Execute a one-item plan through ``simulation.ops`` and return the
    launched records in order.

    ``count=None`` is a single launch now (batch timing); an integer is
    that many launches at the kind's default interval spacing.  ``target``
    may be a ``(lo, hi)`` tuple, a bare threshold or a ``TargetSpec``;
    ``item_fields`` are :class:`OperationItem` fields (``band``,
    ``initiator``, ``policy``, ``selector``, ``mode``, ``ttl``, ``retry``).
    """
    item = OperationItem(
        kind=kind,
        target=AvmemSimulation.as_target(target),
        count=1 if count is None else count,
        timing=OperationTiming(mode="batch" if count is None else "interval"),
        **item_fields,
    )
    return simulation.ops.execute(OperationPlan.single(item, settle=settle)).launched


class FixedAvailability:
    """An availability service answering each node's fixed availability
    in a population, by row: one (``query``) or a batch (``query_array``)."""

    def __init__(self, population: Population):
        self.population = population

    def query(self, row):
        return float(self.population.availabilities[row])

    def query_array(self, rows):
        return self.population.availabilities[rows]


def row_nodes(sim, network, predicate, config, coarse, ids, availabilities,
              service=None, rng=None):
    """Hand-built AVMEM nodes over ``Population.from_ids(ids, availabilities)``.

    One node per id, in ``ids`` order (which must be the row order of
    the network's presence trace and of ``coarse``), each with its own
    availability cache bound to the population.  ``service`` defaults to
    :class:`FixedAvailability` over the population.  Returns
    ``(population, service, nodes)`` with ``nodes`` keyed by id.
    """
    population = Population.from_ids(ids, availabilities)
    if service is None:
        service = FixedAvailability(population)
    nodes = {
        node_id: AvmemNode(
            sim, network, predicate, config,
            CachedAvailabilityView(service, sim, population), coarse,
            rng=rng, population=population, row=row,
        )
        for row, node_id in enumerate(ids)
    }
    return population, service, nodes


def install_matches(node, rows, availabilities):
    """Evaluate ``node``'s predicate against ``rows`` at the given
    availabilities and install the matches: a direct bootstrap of one
    node.  Returns the number installed."""
    me = node.self_descriptor(fresh=True)
    member, horizontal = node.predicate.evaluate_many(
        me, node.population, rows, availabilities
    )
    return node.install_member_rows(
        rows[member], availabilities[member], horizontal[member]
    )


def bootstrap_all(nodes, service):
    """:func:`install_matches` of every node against every other row at
    the service's current answers — the overlay discovery converges to."""
    for node in nodes.values():
        rows = np.delete(np.arange(len(node.population)), node.row)
        install_matches(node, rows, service.query_array(rows))


def row_engine(sim, network, nodes, config, population, service, rng=None, **options):
    """An :class:`OperationEngine` whose ground truth is ``service``:
    scalar truth by id, and multicast eligibility as one row-space
    snapshot (online rows whose availability is in the target)."""
    everyone = np.arange(len(population))

    def truth_eligible(target):
        rows = everyone[network.online_rows(everyone)]
        return set(population.ids_of(rows[target.contains_array(service.query_array(rows))]))

    return OperationEngine(
        sim, network, nodes, config,
        truth_availability=lambda node: service.query(population.row_of(node)), rng=rng,
        truth_eligible=truth_eligible, **options,
    )


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_population(rng):
    """(descriptors, pdf, predicate) for a 120-node synthetic population."""
    ids = make_node_ids(120)
    availabilities = rng.uniform(0.02, 0.98, size=120)
    pdf = AvailabilityPdf.from_samples(availabilities)
    descriptors = [
        NodeDescriptor(node, float(av)) for node, av in zip(ids, availabilities)
    ]
    predicate = paper_predicate(pdf)
    return descriptors, pdf, predicate


@pytest.fixture(scope="session")
def small_simulation():
    """A warmed-up small-scale simulation shared by integration tests.

    Session-scoped because setup costs seconds; tests that mutate state
    (run operations) consume trace time monotonically, which the 32-hour
    small-scale horizon comfortably absorbs.
    """
    from repro.experiments.harness import build_simulation

    return build_simulation(scale="small", seed=42)
