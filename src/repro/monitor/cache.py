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

from repro.core.ids import NodeId
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
    """One node's cached view of other nodes' availabilities.

    Entries are stored as plain ``(value, fetched_at)`` tuples — one is
    written per fetched neighbor per refresh round, so construction cost
    sits on the hot path; :meth:`entry` materializes the public
    :class:`CacheEntry` on demand.

    ``population`` is the :class:`~repro.core.population.Population`
    whose rows are the service's rows: :meth:`fetch_rows` fetches a
    batch addressed by row and materializes the ids only if a read ever
    needs them.
    """

    #: deferred batches are folded into the entry dict once this many
    #: have accumulated, so a consumer that only ever fetches (never
    #: reads) holds a bounded number of batch arrays
    _PENDING_LIMIT = 8

    def __init__(
        self,
        service: AvailabilityService,
        sim: Simulator,
        population: "Population",
    ):
        self._service = service
        self._sim = sim
        self._population = population
        self._entries: Dict[NodeId, Tuple[float, float]] = {}
        #: batches fetched but not yet folded into ``_entries``, oldest
        #: first: ``(keys, values, fetched_at)`` with ``keys`` an integer
        #: array of population rows, or a one-id list for a scalar fetch
        #: queued behind them.  Rounds overwrite whole neighbor sets
        #: every period while reads happen sporadically, so batch results
        #: are folded in lazily (last write wins, same observable state).
        self._pending: list = []
        self.fetch_count = 0
        self.hit_count = 0

    # ------------------------------------------------------------------
    # Fetching (talks to the monitoring service)
    # ------------------------------------------------------------------
    def fetch(self, node: NodeId) -> float:
        """Query the service now and cache the answer."""
        value = self._service.query(node)
        if self._pending:
            # Queue behind the deferred batches instead of folding them:
            # fetch order is what makes the last write win.
            self._defer([node], [value])
        else:
            self._entries[node] = (value, self._sim.now)
        self.fetch_count += 1
        return value

    def fetch_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`fetch` a batch addressed by population row (the
        discovery and refresh hot path) and return the values as a float
        array parallel to ``rows``.

        ``rows`` is an integer array, handed to the service's
        ``query_array`` as it is: one call for the whole batch.  Every
        answer lands in the cache stamped now, but no :class:`NodeId` is
        touched unless a later read folds the batch.
        """
        values = np.asarray(self._service.query_array(rows), dtype=float)
        self._defer(rows, values)
        self.fetch_count += rows.size
        return values

    def _defer(self, keys, values) -> None:
        self._pending.append((keys, values, self._sim.now))
        if len(self._pending) >= self._PENDING_LIMIT:
            self._fold_pending()

    def _fold_pending(self) -> None:
        """Fold deferred batches into the entry dict, oldest first (so a
        later fetch of the same node wins, as with eager stores)."""
        pending, self._pending = self._pending, []
        entries = self._entries
        for keys, values, fetched_at in pending:
            if isinstance(keys, np.ndarray):
                keys = self._population.ids_of(keys)
            if isinstance(values, np.ndarray):
                values = values.tolist()
            # C-level bulk insert: dict.update consumes the zip pipeline
            # without a per-entry python loop.
            entries.update(zip(keys, zip(values, repeat(fetched_at))))

    # ------------------------------------------------------------------
    # Reading (never talks to the service)
    # ------------------------------------------------------------------
    def get(self, node: NodeId) -> Optional[float]:
        """The cached value, or None if never fetched."""
        if self._pending:
            self._fold_pending()
        entry = self._entries.get(node)
        if entry is None:
            return None
        self.hit_count += 1
        return entry[0]

    def get_or_fetch(self, node: NodeId) -> float:
        """Cached value if present, else fetch (for non-hot-path callers)."""
        cached = self.get(node)
        if cached is not None:
            return cached
        return self.fetch(node)

    def entry(self, node: NodeId) -> Optional[CacheEntry]:
        if self._pending:
            self._fold_pending()
        entry = self._entries.get(node)
        return None if entry is None else CacheEntry(*entry)

    def staleness(self, node: NodeId) -> Optional[float]:
        """Seconds since the value for ``node`` was fetched, or None."""
        if self._pending:
            self._fold_pending()
        entry = self._entries.get(node)
        return None if entry is None else self._sim.now - entry[1]

    def evict(self, node: NodeId) -> None:
        if self._pending:
            self._fold_pending()
        self._entries.pop(node, None)

    def __len__(self) -> int:
        if self._pending:
            self._fold_pending()
        return len(self._entries)

    def __contains__(self, node: NodeId) -> bool:
        if self._pending:
            self._fold_pending()
        return node in self._entries
