"""The Section 4.1 attack analysis experiments.

**Flooding attack (Fig 5).**  A selfish node sprays a message at every
host it can enumerate, claiming to be an in-neighbor.  Each target
verifies the AVMEM predicate with its local (cached, possibly noisy)
availability knowledge.  The measured quantity is the fraction of the
attacker's *non-neighbors* (by ground truth) that nevertheless accept —
the audience a selfish node can illegitimately buy.

**Legitimate rejection rate (Fig 6).**  The flip side: for genuinely
valid relationships (ground-truth ``M(x, y) = 1``), how often does the
recipient's stale/inconsistent view make it reject?  The cushion
parameter trades the two failure modes against each other.

Both experiments average over attackers/senders grouped into 0.1-wide
availability bands, exactly as the paper's figures plot them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ids import NodeId
from repro.core.node import AvmemNode
from repro.core.predicates import AvmemPredicate, NodeDescriptor
from repro.util.randomness import fallback_rng

__all__ = [
    "BandedRates",
    "flooding_attack_experiment",
    "legitimate_rejection_experiment",
]

TruthFn = Callable[[NodeId], float]


@dataclass
class BandedRates:
    """Per-availability-band averaged rates (the Figs 5-6 series)."""

    cushion: float
    #: band lower edge (0.0, 0.1, …) -> mean rate across senders in band
    band_rates: Dict[float, float] = field(default_factory=dict)
    #: per-sender raw rates, for scatter/debugging
    sender_rates: Dict[NodeId, float] = field(default_factory=dict)

    @property
    def overall(self) -> float:
        values = list(self.sender_rates.values())
        return float(np.mean(values)) if values else float("nan")

    @property
    def max_band_rate(self) -> float:
        values = list(self.band_rates.values())
        return max(values) if values else float("nan")

    def rows(self) -> List[Tuple[float, float]]:
        """Sorted ``(band_lo, rate)`` rows for reports."""
        return sorted(self.band_rates.items())


def _band_of(availability: float, width: float = 0.1) -> float:
    index = min(int(availability / width), int(round(1.0 / width)) - 1)
    return round(index * width, 10)


def _banded(
    sender_rates: Dict[NodeId, float], truth: Dict[NodeId, float], cushion: float
) -> BandedRates:
    by_band: Dict[float, List[float]] = {}
    for sender, rate in sender_rates.items():
        by_band.setdefault(_band_of(truth[sender]), []).append(rate)
    return BandedRates(
        cushion=cushion,
        band_rates={band: float(np.mean(rates)) for band, rates in by_band.items()},
        sender_rates=sender_rates,
    )


def _ground_truth_member(
    predicate: AvmemPredicate, truth: TruthFn, x: NodeId, y: NodeId
) -> bool:
    """``M(x, y)`` under current exact availabilities (no cushion)."""
    return predicate.evaluate(
        NodeDescriptor(x, truth(x)), NodeDescriptor(y, truth(y))
    )


class _GroundTruth:
    """Exact availabilities and presence of every node in ``nodes``, read
    once per experiment, and ``M(x, ·)`` over all of them in one batched
    predicate call per sender — the same floats as a scalar
    :meth:`~repro.core.predicates.AvmemPredicate.evaluate` per pair."""

    def __init__(
        self,
        nodes: Dict[NodeId, AvmemNode],
        predicate: AvmemPredicate,
        truth: TruthFn,
        online_only: bool,
    ):
        self.ids = list(nodes)
        self.index = {node: i for i, node in enumerate(self.ids)}
        self.predicate = predicate
        members = list(nodes.values())
        self.population = members[0].population if members else None
        if any(node.population is not self.population for node in members):
            raise ValueError("the nodes must share one population")
        self.rows = np.array([node.row for node in members], dtype=np.int64)
        self.availabilities = np.array([truth(node) for node in self.ids], dtype=float)
        self.truth = dict(zip(self.ids, self.availabilities.tolist()))
        self.present = np.array(
            [not online_only or node.online for node in members], dtype=bool
        )

    def others(self, sender: NodeId, members: bool) -> List[NodeId]:
        """The present nodes other than ``sender`` that are (or, with
        ``members=False``, are not) its out-neighbors by ground truth, in
        ``nodes`` order; none when ``sender`` itself is absent."""
        index = self.index[sender]
        if not self.present[index]:
            return []
        x = NodeDescriptor(sender, self.truth[sender])
        member, _ = self.predicate.evaluate_many(
            x, self.population, self.rows, self.availabilities
        )
        keep = self.present & (member if members else ~member)
        keep[index] = False
        return [self.ids[i] for i in np.flatnonzero(keep).tolist()]


def flooding_attack_experiment(
    nodes: Dict[NodeId, AvmemNode],
    predicate: AvmemPredicate,
    truth: TruthFn,
    cushion: float = 0.0,
    attackers: Optional[Sequence[NodeId]] = None,
    max_targets: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    online_only: bool = True,
) -> BandedRates:
    """Fig 5: fraction of non-neighbors accepting a flooded message.

    Parameters
    ----------
    attackers:
        Which nodes play the selfish role (default: all).
    max_targets:
        Cap verification targets per attacker (uniform subsample) to keep
        the O(attackers × targets) experiment tractable.
    """
    rng = rng if rng is not None else fallback_rng()
    ground = _GroundTruth(nodes, predicate, truth, online_only)
    attackers = list(attackers) if attackers is not None else ground.ids
    rates: Dict[NodeId, float] = {}
    for attacker in attackers:
        non_neighbors = ground.others(attacker, members=False)
        if max_targets is not None and len(non_neighbors) > max_targets:
            picked = rng.choice(len(non_neighbors), size=max_targets, replace=False)
            non_neighbors = [non_neighbors[i] for i in picked]
        if not non_neighbors:
            continue
        accepted = sum(
            1
            for y in non_neighbors
            if nodes[y].verifier.accepts(attacker, cushion=cushion)
        )
        rates[attacker] = accepted / len(non_neighbors)
    return _banded(rates, ground.truth, cushion)


def legitimate_rejection_experiment(
    nodes: Dict[NodeId, AvmemNode],
    predicate: AvmemPredicate,
    truth: TruthFn,
    cushion: float = 0.0,
    senders: Optional[Sequence[NodeId]] = None,
    online_only: bool = True,
) -> BandedRates:
    """Fig 6: fraction of *valid* in-neighbor relationships rejected.

    For each sender ``x`` and each ground-truth out-neighbor ``y``
    (``M(x, y) = 1`` right now), check whether ``y``'s verifier would
    reject a message from ``x``.
    """
    ground = _GroundTruth(nodes, predicate, truth, online_only)
    senders = list(senders) if senders is not None else ground.ids
    rates: Dict[NodeId, float] = {}
    for sender in senders:
        neighbors = ground.others(sender, members=True)
        if not neighbors:
            continue
        rejected = sum(
            1
            for y in neighbors
            if not nodes[y].verifier.accepts(sender, cushion=cushion)
        )
        rates[sender] = rejected / len(neighbors)
    return _banded(rates, ground.truth, cushion)
