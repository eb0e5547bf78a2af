"""Availability-monitoring service interface (black-box dependency #1).

Section 3.1: "An availability monitoring service is defined as one that
can be queried for the long-term availability (e.g., raw, or aged) of
any given node.  It returns an answer that is reasonably accurate, and
that is reasonably consistent over time."

The package's implementation is
:class:`~repro.monitor.oracle.OracleAvailability` (trace ground truth,
optionally degraded); ``tests/reference/avmon.py`` keeps the AVMON
protocol the paper's deployment used as a test reference.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["AvailabilityService", "CoarseViewProvider"]


@runtime_checkable
class AvailabilityService(Protocol):
    """Query interface for long-term node availability.

    Both forms of the question address a node by *row* — its position
    in the service's own node order, which is the population order of
    every cache built over it: :meth:`query` for one row, and
    :meth:`query_array` for a batch
    (:meth:`~repro.monitor.cache.CachedAvailabilityView.fetch_rows`
    asks once per discovery or refresh round).
    """

    def query(self, row: int) -> float:
        """Current availability estimate for the node at ``row``, in
        [0, 1]; a row past the population raises IndexError."""
        ...

    def query_array(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`query` for the nodes at ``rows`` (an integer array), as
        a float array parallel to it."""
        ...


@runtime_checkable
class CoarseViewProvider(Protocol):
    """Shuffled partial-membership service (black-box dependency #2).

    "A decentralized shuffling membership service has a node maintain a
    random list of some of the nodes in the system … continuously changed
    by the underlying shuffling protocol" (Section 3.1).

    A provider is built over a sequence of nodes and answers by *row* —
    the position of a node in that sequence, which is the population
    order of the nodes that consume it.  A view never repeats an entry;
    discovery walks it as one batch and relies on that.
    """

    def view_rows(self, row: int) -> np.ndarray:
        """The current (weakly consistent, possibly stale) partial view
        of the node at ``row``: an integer array of distinct rows in
        view order."""
        ...
