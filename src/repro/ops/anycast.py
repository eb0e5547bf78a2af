"""Anycast forwarding policies (Section 3.2).

Three policies, each usable with HS-only, VS-only, or HS+VS neighbor
sets (nine algorithm variants total):

* **Greedy** — forward to a neighbor inside the target range; if none,
  to the neighbor whose (cached) availability is closest to the range.
* **Retried greedy** — greedy candidate order, but transmissions are
  acknowledged; on timeout the previous hop decrements the ``retry``
  budget and tries its next-best neighbor.  (The retry machinery lives
  in :mod:`repro.ops.engine`; the policy contributes the ordering.)
* **Simulated annealing** — with probability ``p = e^(−Δ/ttl)`` pick a
  uniformly random neighbor instead of the greedy one, where Δ is the
  distance from the greedy candidate to the range edge and ttl the
  remaining hop budget.  Early hops explore; late hops exploit.

All decisions use **cached** neighbor availabilities (the entries'
``availability`` fields) — Section 3.2 is explicit that forwarding does
not re-query the monitoring service.
"""

from __future__ import annotations

import abc
import math
from typing import List

import numpy as np

from repro.core.ids import NodeId
from repro.ops.spec import TargetSpec

__all__ = [
    "ForwardingPolicy",
    "GreedyPolicy",
    "RetriedGreedyPolicy",
    "AnnealingPolicy",
    "make_policy",
    "POLICY_NAMES",
]


class ForwardingPolicy(abc.ABC):
    """Produces an ordered candidate list (best first) for one hop."""

    #: registry name
    name: str = "abstract"

    #: whether the engine should run ack/timeout retries for this policy
    wants_ack: bool = False

    @abc.abstractmethod
    def order_candidates(
        self,
        nodes: np.ndarray,
        availabilities: np.ndarray,
        target: TargetSpec,
        ttl_remaining: int,
        rng: np.random.Generator,
        exclude_digests: np.ndarray,
        digests: np.ndarray,
    ) -> List[NodeId]:
        """Candidate next-hops, best first; excluded nodes are omitted.

        ``nodes``/``availabilities``/``digests`` are parallel slices of a
        :class:`~repro.core.membership.NeighborView` in listing order,
        with exclusion expressed as a ``uint64`` digest array.  The rng
        consumption is part of the contract: one shuffle of the in-range
        candidates, one ``rng.random(k)`` tie-break vector over the ``k``
        out-of-range ones, in listing order (the entry-by-entry oracle
        in ``tests/reference/anycast_order.py`` pins list and stream
        position).
        """


def _greedy_order(
    nodes: np.ndarray,
    availabilities: np.ndarray,
    digests: np.ndarray,
    target: TargetSpec,
    rng: np.random.Generator,
    exclude_digests: np.ndarray,
) -> tuple:
    """In-range candidates first (shuffled), then by distance to the
    range with a random tie-break; returns ``(ordered, first_delta)``.

    ``first_delta`` is the greedy best's distance to the range (0.0 when
    an in-range candidate exists, or when there are no candidates) — the
    annealing temperature input.  The outside sort is a stable lexsort
    on (distance, tiebreak).
    """
    if exclude_digests.size:
        keep = ~np.isin(digests, exclude_digests)
        nodes = nodes[keep]
        availabilities = availabilities[keep]
    distances = target.distance_array(availabilities)
    in_sel = distances == 0.0
    in_range = list(nodes[in_sel])
    rng.shuffle(in_range)
    out_idx = np.flatnonzero(~in_sel)
    tiebreak = rng.random(out_idx.size)
    out_dist = distances[out_idx]
    order = np.lexsort((tiebreak, out_dist))
    ordered = in_range + list(nodes[out_idx[order]])
    if in_range or not order.size:
        first_delta = 0.0
    else:
        first_delta = float(out_dist[order[0]])
    return ordered, first_delta


class GreedyPolicy(ForwardingPolicy):
    """Plain greedy forwarding — single shot, no acknowledgements."""

    name = "greedy"
    wants_ack = False

    def order_candidates(
        self, nodes, availabilities, target, ttl_remaining, rng, exclude_digests, digests
    ):
        ordered, _ = _greedy_order(
            nodes, availabilities, digests, target, rng, exclude_digests
        )
        return ordered


class RetriedGreedyPolicy(GreedyPolicy):
    """Greedy ordering with ack/timeout retries down the candidate list."""

    name = "retry-greedy"
    wants_ack = True


class AnnealingPolicy(ForwardingPolicy):
    """Simulated annealing (Section 3.2).

    "The probability of choosing a random next-hop is high initially …
    but decreases as the anycast proceeds": a neighbor that (per its
    cached availability) already lies inside the range is always chosen
    — every variant delivers when it can.  Otherwise, with probability
    ``p = e^(−Δ/ttl)`` — Δ being the greedy candidate's distance to the
    range edge and ttl the remaining hop budget — a uniformly random
    neighbor is explored instead of the greedy one.  Large remaining TTL
    ⇒ p close to 1 ⇒ exploration; as TTL burns down, p falls and the
    walk turns greedy.
    """

    name = "anneal"
    wants_ack = False

    def acceptance_probability(self, delta: float, ttl_remaining: int) -> float:
        """``p = e^(−Δ/ttl)``."""
        if ttl_remaining <= 0:
            return 0.0
        return math.exp(-delta / ttl_remaining)

    def order_candidates(
        self, nodes, availabilities, target, ttl_remaining, rng, exclude_digests, digests
    ):
        ordered, delta = _greedy_order(
            nodes, availabilities, digests, target, rng, exclude_digests
        )
        # The length guard and the in-range short-circuit both precede
        # any randomness: the acceptance draw happens only when there is
        # a choice to make.
        if len(ordered) < 2 or delta == 0.0:
            return ordered
        if rng.random() < self.acceptance_probability(delta, ttl_remaining):
            pick = 1 + int(rng.integers(len(ordered) - 1))
            ordered[0], ordered[pick] = ordered[pick], ordered[0]
        return ordered


_POLICIES = {
    GreedyPolicy.name: GreedyPolicy,
    RetriedGreedyPolicy.name: RetriedGreedyPolicy,
    AnnealingPolicy.name: AnnealingPolicy,
}

POLICY_NAMES = tuple(sorted(_POLICIES))


def make_policy(name: str) -> ForwardingPolicy:
    """Instantiate a forwarding policy by registry name."""
    cls = _POLICIES.get(name)
    if cls is None:
        raise ValueError(f"unknown policy {name!r}; pick from {POLICY_NAMES}")
    return cls()
