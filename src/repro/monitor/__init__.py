"""Availability monitoring and shuffled-membership substrates."""

from repro.monitor.base import AvailabilityService, CoarseViewProvider
from repro.monitor.cache import CachedAvailabilityView, CacheEntry
from repro.monitor.coarse_view import GlobalSampleView, ShuffledCoarseView
from repro.monitor.oracle import OracleAvailability

__all__ = [
    "AvailabilityService",
    "CoarseViewProvider",
    "OracleAvailability",
    "CachedAvailabilityView",
    "CacheEntry",
    "GlobalSampleView",
    "ShuffledCoarseView",
]
