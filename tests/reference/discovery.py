"""The coarse-view sampler and the discovery round as they shipped
before both moved to row space, verbatim: ``_online_pool`` /
``_sample_for`` / ``view`` of ``GlobalSampleView`` (two list
comprehensions over the whole population per sample) and the
per-candidate loop of ``AvmemNode.discovery_step`` (one scalar cache
fetch, one ``evaluate_kind`` and one ``upsert`` per candidate).

``GlobalSampleView.view_rows`` must return the same view and leave the
generator in the same state; ``AvmemNode.discovery_step`` must leave the
table, the return value and the cache's ``fetch_count`` as the loop
does."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ids import NodeId
from repro.core.node import AvmemNode
from repro.core.predicates import NodeDescriptor
from repro.sim.engine import Simulator
from repro.sim.network import PresenceOracle


class ReferenceGlobalSampleView:
    def __init__(
        self,
        sim: Simulator,
        population: Sequence[NodeId],
        view_size: int,
        rng: np.random.Generator,
        presence: Optional[PresenceOracle] = None,
        period: float = 60.0,
        stale_fraction: float = 0.05,
    ):
        self.sim = sim
        self.population: Tuple[NodeId, ...] = tuple(population)
        self.view_size = min(view_size, max(1, len(self.population) - 1))
        self.rng = rng
        self.presence = presence
        self.period = period
        self.stale_fraction = stale_fraction
        self._members = frozenset(self.population)
        self._views: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self._sampled_at: Dict[NodeId, int] = {}
        # Online-pool cache, refreshed once per period bucket.
        self._pool: List[NodeId] = []
        self._pool_bucket = -1

    def _bucket(self) -> int:
        return int(self.sim.now / self.period)

    def _online_pool(self) -> List[NodeId]:
        bucket = self._bucket()
        if bucket != self._pool_bucket:
            if self.presence is None:
                self._pool = list(self.population)
            else:
                now = self.sim.now
                self._pool = [
                    n for n in self.population if self.presence.is_online(n, now)
                ]
                if not self._pool:
                    self._pool = list(self.population)
            self._pool_bucket = bucket
        return self._pool

    def _sample_for(self, node: NodeId) -> Tuple[NodeId, ...]:
        pool = self._online_pool()
        n_stale = int(round(self.view_size * self.stale_fraction))
        n_live = self.view_size - n_stale
        view: List[NodeId] = []
        if n_live > 0:
            live_pool = [p for p in pool if p != node]
            if live_pool:
                size = min(n_live, len(live_pool))
                indices = self.rng.choice(len(live_pool), size=size, replace=False)
                view.extend(live_pool[i] for i in indices)
        if n_stale > 0:
            seen = {node, *view}
            stale_pool = [p for p in self.population if p not in seen]
            if stale_pool:
                size = min(n_stale, len(stale_pool))
                indices = self.rng.choice(len(stale_pool), size=size, replace=False)
                view.extend(stale_pool[i] for i in indices)
        return tuple(view)

    def view(self, node: NodeId) -> Tuple[NodeId, ...]:
        if node not in self._members:
            raise KeyError(f"unknown node {node!r}")
        bucket = self._bucket()
        if self._sampled_at.get(node) != bucket:
            self._views[node] = self._sample_for(node)
            self._sampled_at[node] = bucket
        return self._views[node]


def discovery_step(self: AvmemNode) -> int:
    """One discovery round.  Returns the number of neighbors added."""
    if not self.online:
        return 0
    self.discovery_rounds += 1
    me = self.self_descriptor(fresh=True)
    added = 0
    for candidate in self.coarse_view.view(self.id):
        if candidate == self.id or candidate in self.lists:
            continue
        if self.config.discovery_liveness and not self.network.is_online(candidate):
            continue  # handshake with the candidate failed; skip it
        av_candidate = self.availability.fetch(candidate)
        kind = self.predicate.evaluate_kind(me, NodeDescriptor(candidate, av_candidate))
        if kind is not None:
            self.lists.upsert(candidate, av_candidate, kind, self.sim.now)
            added += 1
    return added
