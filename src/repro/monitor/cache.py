"""Staleness-aware availability caches.

Section 3.2: "when node x is considering potential next-hops for an
anycast, it uses cached values of availabilities for its neighbors.
Typically, these cached values were fetched the last time the refresh
operation was done" — and Section 4.1 measures how that staleness both
enables flooding attacks and causes legitimate rejections.

:class:`CachedAvailabilityView` wraps an
:class:`~repro.monitor.base.AvailabilityService` with an explicit
fetch/read split so protocol code can only read what it has fetched.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.monitor.base import AvailabilityService
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # repro.core imports repro.monitor.cache
    from repro.core.population import Population

__all__ = ["CacheEntry", "CachedAvailabilityView"]


class CacheEntry(NamedTuple):
    """A cached availability value and when it was fetched."""

    value: float
    fetched_at: float

    def age(self, now: float) -> float:
        return now - self.fetched_at


class CachedAvailabilityView:
    """One node's cached view of other nodes' availabilities, addressed
    by population row.

    ``population`` is the :class:`~repro.core.population.Population`
    whose rows are the service's rows.  Entries are plain
    ``(value, fetched_at)`` tuples keyed by row — one is written per
    fetched neighbor per round, so construction cost sits on the hot
    path; :meth:`entry` materializes the public :class:`CacheEntry` on
    demand.
    """

    def __init__(self, service: AvailabilityService, sim: Simulator, population: "Population"):
        self._service = service
        self._sim = sim
        self.population = population
        self._entries: Dict[int, Tuple[float, float]] = {}
        self.fetch_count = 0
        self.hit_count = 0

    # ------------------------------------------------------------------
    # Fetching (talks to the monitoring service)
    # ------------------------------------------------------------------
    def fetch(self, row: int) -> float:
        """Query the service now and cache the answer."""
        value = self._service.query(row)
        self._entries[row] = (value, self._sim.now)
        self.fetch_count += 1
        return value

    def fetch_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`fetch` a batch of rows (the discovery and refresh hot
        path) with one ``query_array`` call, and return the values as a
        float array parallel to ``rows``.  Every answer lands in the
        cache stamped now."""
        values = np.asarray(self._service.query_array(rows), dtype=float)
        # C-level bulk insert: dict.update consumes the zip pipeline
        # without a per-entry python loop.
        self._entries.update(
            zip(self.population.row_keys(rows), zip(values.tolist(), repeat(self._sim.now)))
        )
        self.fetch_count += rows.size
        return values

    # ------------------------------------------------------------------
    # Reading (never talks to the service)
    # ------------------------------------------------------------------
    def get(self, row: int) -> Optional[float]:
        """The cached value, or None if never fetched."""
        entry = self._entries.get(row)
        if entry is None:
            return None
        self.hit_count += 1
        return entry[0]

    def get_or_fetch(self, row: int) -> float:
        """Cached value if present, else fetch (for non-hot-path callers)."""
        cached = self.get(row)
        if cached is not None:
            return cached
        return self.fetch(row)

    def entry(self, row: int) -> Optional[CacheEntry]:
        entry = self._entries.get(row)
        return None if entry is None else CacheEntry(*entry)

    def staleness(self, row: int) -> Optional[float]:
        """Seconds since the value for ``row`` was fetched, or None."""
        entry = self._entries.get(row)
        return None if entry is None else self._sim.now - entry[1]

    def evict(self, row: int) -> None:
        self._entries.pop(row, None)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, row: int) -> bool:
        return row in self._entries
