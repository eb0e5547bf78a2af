"""Shared fixtures for the AVMEM reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.availability import AvailabilityPdf
from repro.core.ids import make_node_ids
from repro.core.predicates import NodeDescriptor, paper_predicate
from repro.ops.plan import OperationItem, OperationPlan, OperationTiming
from repro.sim.engine import Simulator
from repro.simulation import AvmemSimulation


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
