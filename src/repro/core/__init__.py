"""AVMEM core: the paper's primary contribution.

Identifiers, the consistent hash family, the discretized availability
PDF, the sliver sub-predicate family, the membership predicate
framework, per-node membership state, the discovery/refresh protocols,
inbound verification, and the Section 2.2 theory predictions.
"""

from repro.core.availability import AvailabilityPdf
from repro.core.config import AnycastConfig, AvmemConfig, GossipConfig
from repro.core.hashing import (
    HASH_NAMES,
    DigestPairHash,
    Mix64PairHash,
    PairwiseHash,
    make_hash,
)
from repro.core.ids import NodeId, digest_array, make_node_ids
from repro.core.membership import (
    MemberEntry,
    MembershipTable,
    NeighborView,
    SliverSelector,
)
from repro.core.node import AvmemNode
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
    FunctionRule,
    HorizontalSliverRule,
    LogarithmicConstantHorizontal,
    LogarithmicDecreasingVertical,
    LogarithmicVertical,
    RandomUniformRule,
    VerticalSliverRule,
)
from repro.core.theory import (
    expected_degree,
    expected_horizontal_size,
    expected_vertical_size,
    theorem1_band_counts,
    theorem3_bound,
)
from repro.core.verification import InboundVerifier, VerificationResult

__all__ = [
    "NodeId",
    "make_node_ids",
    "digest_array",
    "PairwiseHash",
    "Mix64PairHash",
    "DigestPairHash",
    "make_hash",
    "HASH_NAMES",
    "AvailabilityPdf",
    "AvmemPredicate",
    "NodeDescriptor",
    "SliverKind",
    "paper_predicate",
    "random_overlay_predicate",
    "VerticalSliverRule",
    "HorizontalSliverRule",
    "ConstantVertical",
    "LogarithmicVertical",
    "LogarithmicDecreasingVertical",
    "ConstantHorizontal",
    "LogarithmicConstantHorizontal",
    "RandomUniformRule",
    "FunctionRule",
    "MembershipTable",
    "MemberEntry",
    "NeighborView",
    "SliverSelector",
    "AvmemNode",
    "AvmemConfig",
    "AnycastConfig",
    "GossipConfig",
    "InboundVerifier",
    "VerificationResult",
    "expected_degree",
    "expected_horizontal_size",
    "expected_vertical_size",
    "theorem1_band_counts",
    "theorem3_bound",
]
