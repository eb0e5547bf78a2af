"""CYCLON (Voulgaris, Gavidia, van Steen 2005) — inexpensive membership
management for unstructured overlays.

One of the shuffling partial-membership services the paper lists as a
usable substrate (Section 3.1).  This is the *faithful* CYCLON with aged
view entries and oldest-first partner selection, in contrast to the
simplified swap in :class:`repro.monitor.coarse_view.ShuffledCoarseView`:

1. Increase the age of all view entries by one.
2. Pick the *oldest* entry ``Q`` as the shuffle partner.
3. Send ``Q`` a subset of ``l`` entries, including a fresh self-pointer.
4. ``Q`` replies with a subset of its own entries.
5. Both merge, discarding self-pointers and entries already present,
   filling empty slots first and replacing sent entries otherwise.

The exchange is performed synchronously on the shared state (the paper
consumes the shuffler as a black box; message-level simulation of it
would only add cost), driven by one global periodic task.  Implements
:class:`~repro.monitor.base.CoarseViewProvider` (``view_rows``, rows of
``population``) beside the id-addressed ``view`` analyses read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ids import NodeId
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.network import PresenceOracle

__all__ = ["CyclonView", "CyclonEntry"]


@dataclass
class CyclonEntry:
    """A view slot: a node pointer and its age in shuffle rounds."""

    node: NodeId
    age: int = 0


class CyclonView:
    """CYCLON views for a whole population, driven by the simulator."""

    def __init__(
        self,
        sim: Simulator,
        population: Sequence[NodeId],
        view_size: int,
        shuffle_length: int,
        rng: np.random.Generator,
        presence: Optional[PresenceOracle] = None,
        period: float = 60.0,
        start: bool = True,
    ):
        if view_size <= 0:
            raise ValueError(f"view_size must be positive, got {view_size}")
        if not 0 < shuffle_length <= view_size:
            raise ValueError(
                f"shuffle_length must be in (0, view_size], got {shuffle_length}"
            )
        self.sim = sim
        self.population: Tuple[NodeId, ...] = tuple(population)
        self._row_of = dict(zip(self.population, range(len(self.population))))
        self.view_size = min(view_size, max(1, len(self.population) - 1))
        self.shuffle_length = min(shuffle_length, self.view_size)
        self.rng = rng
        self.presence = presence
        self.period = period
        self.exchange_count = 0
        self._views: Dict[NodeId, List[CyclonEntry]] = {}
        self._bootstrap()
        self._task: Optional[PeriodicTask] = None
        if start:
            self._task = PeriodicTask(sim, period, self.step)

    def _bootstrap(self) -> None:
        n = len(self.population)
        for node in self.population:
            entries: List[CyclonEntry] = []
            seen = {node}
            while len(entries) < min(self.view_size, n - 1):
                candidate = self.population[int(self.rng.integers(n))]
                if candidate not in seen:
                    seen.add(candidate)
                    entries.append(CyclonEntry(candidate, age=0))
            self._views[node] = entries

    def _is_online(self, node: NodeId) -> bool:
        return self.presence is None or self.presence.is_online(node, self.sim.now)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def step(self) -> None:
        """One global round: every online node initiates one shuffle."""
        order = list(self.population)
        self.rng.shuffle(order)
        for node in order:
            if self._is_online(node):
                self.shuffle_once(node)

    def shuffle_once(self, initiator: NodeId) -> bool:
        """One CYCLON exchange initiated by ``initiator``.

        Returns False when no online partner was reachable (the oldest
        entries pointing at offline nodes are discarded, as in CYCLON's
        failure handling).
        """
        view = self._views[initiator]
        if not view:
            return False
        for entry in view:
            entry.age += 1
        # Oldest-first partner selection; drop dead pointers as we probe.
        for entry in sorted(view, key=lambda e: -e.age):
            if self._is_online(entry.node):
                partner = entry.node
                break
            view.remove(entry)
        else:
            return False
        self._exchange(initiator, partner)
        self.exchange_count += 1
        return True

    def _exchange(self, initiator: NodeId, partner: NodeId) -> None:
        view_i = self._views[initiator]
        view_p = self._views[partner]
        # Initiator sends l-1 random entries plus a fresh self-pointer;
        # the partner entry itself is what we are replacing.
        view_i[:] = [e for e in view_i if e.node != partner]
        subset_i = self._sample(view_i, self.shuffle_length - 1)
        sent_i = [CyclonEntry(initiator, age=0)] + [CyclonEntry(e.node, e.age) for e in subset_i]
        subset_p = self._sample(view_p, self.shuffle_length)
        sent_p = [CyclonEntry(e.node, e.age) for e in subset_p]
        self._merge(initiator, view_i, [e.node for e in subset_i], sent_p)
        self._merge(partner, view_p, [e.node for e in subset_p], sent_i)

    def _sample(self, view: List[CyclonEntry], count: int) -> List[CyclonEntry]:
        if count <= 0 or not view:
            return []
        count = min(count, len(view))
        indices = self.rng.choice(len(view), size=count, replace=False)
        return [view[i] for i in indices]

    def _merge(
        self,
        owner: NodeId,
        view: List[CyclonEntry],
        sent_nodes: List[NodeId],
        received: List[CyclonEntry],
    ) -> None:
        present = {entry.node for entry in view}
        removable = [node for node in sent_nodes]
        for incoming in received:
            if incoming.node == owner or incoming.node in present:
                continue
            if len(view) < self.view_size:
                view.append(CyclonEntry(incoming.node, incoming.age))
                present.add(incoming.node)
            elif removable:
                victim = removable.pop()
                for idx, entry in enumerate(view):
                    if entry.node == victim:
                        view[idx] = CyclonEntry(incoming.node, incoming.age)
                        present.discard(victim)
                        present.add(incoming.node)
                        break

    # ------------------------------------------------------------------
    # CoarseViewProvider protocol
    # ------------------------------------------------------------------
    def view(self, node: NodeId) -> Tuple[NodeId, ...]:
        try:
            return tuple(entry.node for entry in self._views[node])
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def view_rows(self, row: int) -> np.ndarray:
        """:meth:`view` of the node at ``row``, as population rows."""
        entries = self._views[self.population[row]]
        return np.array([self._row_of[entry.node] for entry in entries], dtype=np.int64)

    def entry_ages(self, node: NodeId) -> Tuple[int, ...]:
        return tuple(entry.age for entry in self._views[node])

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
