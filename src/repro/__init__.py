"""AVMEM — availability-aware overlays for management operations in
non-cooperative distributed systems.

A from-scratch Python reproduction of Cho, Morales & Gupta (Middleware
2007): the consistent, randomized, availability-aware membership
predicate family; the discovery/refresh maintenance protocols; and the
threshold/range anycast and multicast management operations — evaluated
under Overnet-style churn on a discrete-event simulator.

Quickstart
----------
>>> from repro import AvmemSimulation, SimulationSettings
>>> from repro.ops import OperationItem, OperationPlan, TargetSpec
>>> sim = AvmemSimulation(SimulationSettings(hosts=200, seed=7))
>>> sim.setup(warmup=3600.0)
>>> item = OperationItem(kind="anycast", target=TargetSpec.range(0.85, 0.95))
>>> log = sim.ops.run(OperationPlan.single(item))
>>> len(log)
1

See README.md for the full tour and docs/architecture.md for the
layer-by-layer architecture.
"""

from repro.core import (
    AvailabilityPdf,
    AvmemConfig,
    AvmemNode,
    AvmemPredicate,
    MemberEntry,
    MembershipTable,
    NodeDescriptor,
    NodeId,
    SliverKind,
    SliverSelector,
    make_node_ids,
    paper_predicate,
    random_overlay_predicate,
)
from repro.simulation import AvmemSimulation, SimulationSettings

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "NodeId",
    "make_node_ids",
    "NodeDescriptor",
    "AvailabilityPdf",
    "AvmemPredicate",
    "paper_predicate",
    "random_overlay_predicate",
    "SliverKind",
    "SliverSelector",
    "MemberEntry",
    "MembershipTable",
    "AvmemConfig",
    "AvmemNode",
    "AvmemSimulation",
    "SimulationSettings",
]
