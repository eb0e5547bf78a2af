"""Availability-monitoring service interface (black-box dependency #1).

Section 3.1: "An availability monitoring service is defined as one that
can be queried for the long-term availability (e.g., raw, or aged) of
any given node.  It returns an answer that is reasonably accurate, and
that is reasonably consistent over time."

Implementations here: :class:`~repro.monitor.oracle.OracleAvailability`
(trace ground truth, optionally degraded) and
:class:`~repro.monitor.avmon.AvmonService` (the full AVMON protocol).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.ids import NodeId

__all__ = ["AvailabilityService", "CoarseViewProvider"]


@runtime_checkable
class AvailabilityService(Protocol):
    """Query interface for long-term node availability.

    A service may also offer a batched ``query_array(nodes) -> float
    array`` (both shipped services do); the availability cache asks it
    once per round instead of once per node.  Behind a population-bound
    cache (:meth:`~repro.monitor.cache.CachedAvailabilityView.fetch_rows`)
    ``nodes`` arrives as an integer array of rows in the service's own
    node order, which :class:`~repro.monitor.oracle.OracleAvailability`
    accepts.
    """

    def query(self, node: NodeId) -> float:
        """Current availability estimate for ``node``, in [0, 1].

        Must never raise for known nodes; unknown nodes raise KeyError.
        """
        ...


@runtime_checkable
class CoarseViewProvider(Protocol):
    """Shuffled partial-membership service (black-box dependency #2).

    "A decentralized shuffling membership service has a node maintain a
    random list of some of the nodes in the system … continuously changed
    by the underlying shuffling protocol" (Section 3.1).

    A provider is built over a sequence of nodes and answers in either
    addressing: by id (:meth:`view`, all that population-less nodes
    call) or by *row* — the position of a node in that sequence
    (:meth:`view_rows`, all that population-backed nodes call).  A view
    never repeats an entry; discovery walks it as one batch and relies
    on that.
    """

    def view(self, node: NodeId) -> tuple:
        """The current (weakly consistent, possibly stale) partial view
        of ``node``: a tuple of distinct NodeIds."""
        ...

    def view_rows(self, row: int) -> np.ndarray:
        """The same view for the node at ``row``, as an integer array of
        rows in view order — what population-backed nodes (whose
        population is the provider's sequence) consume without
        materializing any id."""
        ...
