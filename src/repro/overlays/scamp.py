"""SCAMP (Ganesh, Kermarrec, Massoulié 2003) — probabilistic
subscription-based membership.

The second shuffling-membership substrate the paper cites (it is also
the source of the "Ω(log M) random neighbors ⇒ connected w.h.p." result
that Theorems 2-3 lean on).  SCAMP's defining property: views
self-stabilize to O(log N) size *without knowing N*, via the
subscription-forwarding rule:

* A joining node sends a subscription to a contact.
* The contact forwards copies of the subscription to **all** nodes in
  its partial view, plus ``c`` additional random copies (``c`` is the
  failure-tolerance parameter).
* A node receiving a forwarded subscription keeps it with probability
  ``1/(1 + view_size)``; otherwise it forwards the copy to a random
  member of its view.  Forwarding is bounded by a TTL to guarantee
  termination.

As with the other substrates, joins execute synchronously on shared
state (the paper consumes membership as a black box).  Implements
the id-addressed half of :class:`~repro.monitor.base.CoarseViewProvider`
(``view``), which is what population-less nodes consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.ids import NodeId
from repro.util.randomness import fallback_rng

__all__ = ["ScampMembership"]

_FORWARD_TTL = 64


class ScampMembership:
    """SCAMP partial views (out-views) for a population.

    Build with :meth:`join_all` for a full population, or call
    :meth:`join` incrementally to study view-size growth.
    """

    def __init__(self, c: int = 1, rng: Optional[np.random.Generator] = None):
        if c < 0:
            raise ValueError(f"c must be non-negative, got {c}")
        self.c = c
        self.rng = rng if rng is not None else fallback_rng()
        self._views: Dict[NodeId, List[NodeId]] = {}
        self.forward_count = 0

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def join(self, node: NodeId, contact: Optional[NodeId] = None) -> None:
        """Subscribe ``node`` via ``contact`` (None only for the first node)."""
        if node in self._views:
            raise ValueError(f"{node!r} already joined")
        self._views[node] = []
        if contact is None:
            if len(self._views) > 1:
                raise ValueError("only the first node may join without a contact")
            return
        if contact not in self._views:
            raise KeyError(f"contact {contact!r} is not a member")
        # The new node starts out knowing its contact.
        self._views[node].append(contact)
        # The contact forwards the subscription to its whole view + c copies.
        targets = list(self._views[contact]) + [
            self._random_member(exclude=node) for _ in range(self.c)
        ]
        # The contact also integrates the newcomer directly.
        self._maybe_keep(contact, node, force=True)
        for target in targets:
            if target is not None:
                self._forward_subscription(target, node)

    def join_all(self, nodes: Sequence[NodeId]) -> None:
        """Join ``nodes`` in order, each via a uniformly random existing
        member (the standard SCAMP bootstrap experiment)."""
        for node in nodes:
            members = list(self._views)
            contact = None
            if members:
                contact = members[int(self.rng.integers(len(members)))]
            self.join(node, contact)

    # ------------------------------------------------------------------
    # Subscription forwarding
    # ------------------------------------------------------------------
    def _forward_subscription(self, holder: NodeId, subscriber: NodeId) -> None:
        ttl = _FORWARD_TTL
        current = holder
        while ttl > 0:
            ttl -= 1
            self.forward_count += 1
            if current != subscriber and self._maybe_keep(current, subscriber):
                return
            view = self._views[current]
            candidates = [n for n in view if n != subscriber]
            if not candidates:
                return
            current = candidates[int(self.rng.integers(len(candidates)))]
        # TTL exhausted: keep unconditionally to avoid losing the
        # subscription (SCAMP's "keep if nowhere to forward" rule).
        self._maybe_keep(current, subscriber, force=True)

    def _maybe_keep(self, holder: NodeId, subscriber: NodeId, force: bool = False) -> bool:
        view = self._views[holder]
        if subscriber in view or holder == subscriber:
            return False
        p_keep = 1.0 / (1.0 + len(view))
        if force or self.rng.random() < p_keep:
            view.append(subscriber)
            return True
        return False

    def _random_member(self, exclude: NodeId) -> Optional[NodeId]:
        members = [n for n in self._views if n != exclude]
        if not members:
            return None
        return members[int(self.rng.integers(len(members)))]

    # ------------------------------------------------------------------
    # CoarseViewProvider protocol + analysis
    # ------------------------------------------------------------------
    def view(self, node: NodeId) -> Tuple[NodeId, ...]:
        try:
            return tuple(self._views[node])
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    @property
    def members(self) -> Tuple[NodeId, ...]:
        return tuple(self._views)

    def view_sizes(self) -> List[int]:
        return [len(v) for v in self._views.values()]

    def in_degree(self, node: NodeId) -> int:
        return sum(1 for view in self._views.values() if node in view)

    def reachable_from(self, node: NodeId) -> Set[NodeId]:
        """Transitive closure along out-views (connectivity check)."""
        seen: Set[NodeId] = {node}
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for neighbor in self._views.get(current, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen
