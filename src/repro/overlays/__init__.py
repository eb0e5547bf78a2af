"""Overlay construction, analysis, and baseline membership protocols."""

from repro.overlays.cyclon import CyclonEntry, CyclonView
from repro.overlays.graphs import (
    OverlayGraph,
    band_connectivity,
    band_subgraph,
    build_overlay,
    incoming_counts_by_kind,
    mean_out_degree,
    sliver_sizes,
)
from repro.overlays.random_overlay import (
    degree_matched_random_predicate,
    mean_avmem_degree,
)
from repro.overlays.ring_dht import AvailabilityRing, RingLookupResult
from repro.overlays.scamp import ScampMembership

__all__ = [
    "OverlayGraph",
    "build_overlay",
    "sliver_sizes",
    "incoming_counts_by_kind",
    "band_subgraph",
    "band_connectivity",
    "mean_out_degree",
    "CyclonView",
    "CyclonEntry",
    "ScampMembership",
    "AvailabilityRing",
    "RingLookupResult",
    "degree_matched_random_predicate",
    "mean_avmem_degree",
]
